// Package memory models the Dorado memory system (described in the
// companion report: Clark et al., "The memory system of a high-performance
// personal computer", CSL-81-1) at the fidelity the processor paper depends
// on:
//
//   - Virtual addresses are formed by adding a 16-bit displacement (the
//     MEMADDRESS bus, a copy of the processor's A bus) to one of 32
//     28-bit base registers selected by MEMBASE (§6.3.2 of the processor
//     paper).
//   - A page map translates virtual pages (256 words) to real pages.
//   - The cache answers a reference every cycle with a two-cycle latency
//     (§3), and is fully segmented: a new reference can start every cycle.
//   - Main storage is pipelined with an eight-cycle RAM cycle: a storage
//     reference (cache miss fill, writeback, or fast-I/O block) can start
//     at most once every eight cycles (§6.2.1).
//   - The memory tells the processor when data is ready via Hold (§5.7):
//     MDReady answers whether the task's most recent fetch has completed;
//     the processor converts a premature use into a "no-op, jump to self".
//   - Fast I/O moves aligned 16-word blocks directly between storage and
//     devices without polluting the cache (§5.8).
//
// Fidelity note: data movement is functional-immediate — storage alone
// holds the contents, as 256-word pages that each get their words at
// their first store, and the cache holds only *timing* metadata (tags,
// LRU, dirty bits). Timing (hit/miss latency, storage-pipe
// occupancy, writeback traffic) is modeled cycle-accurately; the contents
// of a location during the few cycles a miss is in flight are not. The
// paper's performance claims are cycle-count properties, which this
// preserves.
package memory

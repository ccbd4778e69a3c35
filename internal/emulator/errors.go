package emulator

import "fmt"

// InstallError reports a failure while combining or installing an emulator
// or assembling a byte program for it. It wraps the underlying cause so
// callers can classify failures with errors.As without parsing message
// strings.
type InstallError struct {
	Emulator string // emulator name ("mesa", "lisp", ...); "" when not specific
	Stage    string // "splice", "image" (microstore words or decode table), "macrocode"
	Err      error
}

// Error implements the error interface, naming the emulator and stage.
func (e *InstallError) Error() string {
	if e.Emulator == "" {
		return fmt.Sprintf("emulator: %s: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("emulator %s: %s: %v", e.Emulator, e.Stage, e.Err)
}

// Unwrap exposes the underlying cause for errors.Is / errors.As.
func (e *InstallError) Unwrap() error { return e.Err }

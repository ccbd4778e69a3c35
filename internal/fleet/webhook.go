package fleet

// Webhook delivery for run completions: a session created with
// Spec.Webhook gets every terminal RunView POSTed to that URL, so
// non-SSE clients stop polling GetRun. The worker's run completion
// (runs.go) hands the view over; each delivery then runs on a goroutine
// of its own, off the worker path and tracked for Drain, with bounded
// retry and exponential backoff. A delivery that exhausts its attempts,
// or that a drain cuts short, is dead-lettered into the dropped counter
// (dorado_fleet_webhook_dropped_total) and logged, never retried forever.
//
// The backlog is bounded the way a controller counts an overrun instead
// of growing its buffer: at most maxRunsRetained of a session's views are
// in delivery (attempts and backoff included) at once, and a view past
// that is dead-lettered at once. Its run stays retained like any other,
// so GET .../runs/{rid} recovers it.
//
// Outbound HTTP to arbitrary session-supplied URLs is an SSRF hazard, so
// webhooks are allowlist-gated twice: Create rejects a Spec whose
// webhook origin is not in Config.WebhookAllow (doradod -webhook-allow),
// and delivery re-checks — a Spec can also enter through a store sidecar
// (CreateFrom, adoption) written under an older allowlist, and the check
// at delivery time is the one that actually guards the socket.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// webhookMaxAttempts bounds delivery: one initial attempt plus three
// retries, after which the event is dead-lettered. webhookBackoff is the
// first retry delay; it doubles per attempt.
const (
	webhookMaxAttempts = 4
	webhookBackoff     = 250 * time.Millisecond
)

// webhookOrigin canonicalizes a webhook URL to its origin
// ("scheme://host[:port]", lowercased) for allowlist matching.
func webhookOrigin(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("webhook url %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("webhook url %q: scheme must be http or https", raw)
	}
	if u.Host == "" {
		return "", fmt.Errorf("webhook url %q: missing host", raw)
	}
	return strings.ToLower(u.Scheme + "://" + u.Host), nil
}

// checkWebhook validates a webhook URL against the configured origin
// allowlist. An empty allowlist rejects everything (delivery is strictly
// operator-opt-in); the entry "*" allows any origin.
func (m *Manager) checkWebhook(raw string) error {
	origin, err := webhookOrigin(raw)
	if err != nil {
		return err
	}
	for _, a := range m.cfg.WebhookAllow {
		if a == "*" {
			return nil
		}
		if ao, err := webhookOrigin(a); err == nil && ao == origin {
			return nil
		}
	}
	return fmt.Errorf("webhook origin %s is not allowlisted (see -webhook-allow)", origin)
}

// sendWebhook hands a terminal run view to the session's webhook: it
// starts the view's delivery, or dead-letters the view when the session
// already has maxRunsRetained in delivery. The worker calls it from the
// run's completion, so Drain's wait for the operations covers every
// hookWG.Add.
func (m *Manager) sendWebhook(s *Session, v RunView) {
	s.mu.Lock()
	full := s.hooks >= maxRunsRetained
	if !full {
		s.hooks++
	}
	s.mu.Unlock()
	if full {
		m.counters.webhookDropped.Add(1)
		if m.cfg.Logger != nil {
			m.cfg.Logger.Warn("fleet: webhook dead-lettered (backlog full)",
				"session", v.Session, "run", v.ID, "backlog", maxRunsRetained)
		}
		return
	}
	m.hookWG.Add(1)
	go func() {
		defer m.hookWG.Done()
		m.deliverWebhook(s.spec.Webhook, v)
		s.mu.Lock()
		s.hooks--
		s.mu.Unlock()
	}()
}

// deliverWebhook POSTs a terminal run view to the session's webhook with
// bounded retry. The drain signal cancels the attempt in flight and aborts
// a backoff sleep, dead-lettering the view, so shutdown never waits out a
// receiver that hangs or a retry ladder.
func (m *Manager) deliverWebhook(hook string, v RunView) {
	if err := m.checkWebhook(hook); err != nil {
		m.counters.webhookDropped.Add(1)
		if m.cfg.Logger != nil {
			m.cfg.Logger.Warn("fleet: webhook dropped (origin not allowlisted)",
				"session", v.Session, "run", v.ID, "err", err)
		}
		return
	}
	body, err := json.Marshal(v)
	if err != nil {
		m.counters.webhookDropped.Add(1)
		return
	}
	backoff := m.cfg.webhookBackoff
	for attempt := 1; ; attempt++ {
		err := m.postWebhook(hook, body, v)
		if err == nil {
			m.counters.webhookDelivered.Add(1)
			return
		}
		if attempt >= webhookMaxAttempts || m.drainCtx.Err() != nil {
			m.counters.webhookDropped.Add(1)
			if m.cfg.Logger != nil {
				m.cfg.Logger.Warn("fleet: webhook dead-lettered",
					"session", v.Session, "run", v.ID, "attempts", attempt, "err", err)
			}
			return
		}
		m.counters.webhookRetried.Add(1)
		select {
		case <-time.After(backoff):
			backoff *= 2
		case <-m.drainCtx.Done():
			// Draining: abandon the retry ladder rather than hold
			// shutdown hostage; the event is dead-lettered.
			m.counters.webhookDropped.Add(1)
			return
		}
	}
}

// webhookClient issues every webhook POST.
var webhookClient = &http.Client{Timeout: 10 * time.Second}

// postWebhook issues one delivery attempt, which Drain's start cancels.
// Success is any 2xx response.
func (m *Manager) postWebhook(hook string, body []byte, v RunView) error {
	req, err := http.NewRequestWithContext(m.drainCtx, http.MethodPost, hook, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Dorado-Event", "run")
	req.Header.Set("Dorado-Session", v.Session)
	req.Header.Set("Dorado-Run", v.ID)
	resp, err := webhookClient.Do(req)
	if err != nil {
		return err
	}
	// Drain a little so the connection can be reused, then close.
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096)) //nolint:errcheck // best-effort drain
	resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("webhook: receiver answered %s", resp.Status)
	}
	return nil
}

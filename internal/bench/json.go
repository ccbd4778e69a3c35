package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"os"

	"dorado/internal/store"
)

// WriteJSON is the one JSON encoder shared by cmd/simbench (BENCH_SIM.json)
// and cmd/benchtab -json: indented, trailing newline, HTML escaping off so
// claims quoting the paper stay readable.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// ReadHostReportFile loads a host report (the BENCH_SIM.json shape) for
// the bench guard.
func ReadHostReportFile(path string) (*HostReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep HostReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// WriteJSONFile writes v to path in WriteJSON's encoding, atomically and
// durably (store.WriteFileAtomic): a reader, or a benchmark run killed
// mid-write, never sees a truncated document.
func WriteJSONFile(path string, v any) error {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, v); err != nil {
		return err
	}
	return store.WriteFileAtomic(path, buf.Bytes())
}

// RowJSON mirrors Row with JSON field names.
type RowJSON struct {
	Name     string `json:"name"`
	Paper    string `json:"paper"`
	Measured string `json:"measured"`
	Note     string `json:"note,omitempty"`
}

// TableJSON is the machine-readable view of an experiment Table: the Err
// field flattens to a string (error values have no useful JSON form).
type TableJSON struct {
	ID    string    `json:"id"`
	Title string    `json:"title"`
	Claim string    `json:"claim"`
	Rows  []RowJSON `json:"rows"`
	Pass  bool      `json:"pass"`
	Err   string    `json:"error,omitempty"`
}

// JSON converts a Table for encoding with WriteJSON.
func (t Table) JSON() TableJSON {
	out := TableJSON{ID: t.ID, Title: t.Title, Claim: t.Claim, Pass: t.Pass}
	if t.Err != nil {
		out.Err = t.Err.Error()
	}
	for _, r := range t.Rows {
		out.Rows = append(out.Rows, RowJSON{Name: r.Name, Paper: r.Paper, Measured: r.Measured, Note: r.Note})
	}
	return out
}

// Package storetest writes snapshots in the store layout that builds
// before the binary recipe left, for tests that check a build still
// reads, revives and sweeps such a store. It keeps the old encoder
// rather than calling the store's, so a test that reads its output
// checks the reader independently.
package storetest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"

	"dorado/internal/state"
)

// recipeV1 is a version-1 recipe: the JSON document that named every
// section of a snapshot as a file under sections/, whatever its size.
type recipeV1 struct {
	Version  int             `json:"version"`
	Header   []byte          `json:"header"`
	Sections []recipeV1Entry `json:"sections"`
}

type recipeV1Entry struct {
	Tag  string `json:"tag"`
	Hash string `json:"hash"`
}

func hash(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// PutRecipeV1 files the snapshot document data in the store rooted at dir
// as a version-1 recipe: every section under sections/<sha256 of its
// body> and the JSON recipe under recipes/<sha256 of data>. It returns the
// snapshot's hash and the hash of each section, in document order.
func PutRecipeV1(dir string, data []byte) (snap string, sections []string, err error) {
	doc, err := state.Split(data)
	if err != nil {
		return "", nil, err
	}
	for _, sub := range []string{"sections", "recipes"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return "", nil, err
		}
	}
	r := recipeV1{Version: 1, Header: doc.Header}
	for _, sec := range doc.Sections {
		h := hash(sec.Body)
		if err := os.WriteFile(filepath.Join(dir, "sections", h), sec.Body, 0o644); err != nil {
			return "", nil, err
		}
		r.Sections = append(r.Sections, recipeV1Entry{Tag: sec.Tag, Hash: h})
		sections = append(sections, h)
	}
	enc, err := json.Marshal(r)
	if err != nil {
		return "", nil, err
	}
	snap = hash(data)
	if err := os.WriteFile(filepath.Join(dir, "recipes", snap), enc, 0o644); err != nil {
		return "", nil, err
	}
	return snap, sections, nil
}

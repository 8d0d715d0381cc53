package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"setlearn/internal/sets"
)

func TestParseQuery(t *testing.T) {
	q, err := parseQuery("3,1 2")
	if err != nil {
		t.Fatal(err)
	}
	if !q.Equal(sets.New(1, 2, 3)) {
		t.Fatalf("parsed %v", q)
	}
	if _, err := parseQuery("1,x"); err == nil {
		t.Fatal("expected error for non-numeric element")
	}
	if _, err := parseQuery("  "); err == nil {
		t.Fatal("expected error for empty query")
	}
}

func TestLoadQueriesFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.txt")
	if err := os.WriteFile(path, []byte("# header\n1,2\n\n3 4 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	qs, err := loadQueries("9", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 3 {
		t.Fatalf("got %d queries", len(qs))
	}
	if !qs[0].Equal(sets.New(9)) || !qs[1].Equal(sets.New(1, 2)) || !qs[2].Equal(sets.New(3, 4, 5)) {
		t.Fatalf("queries %v", qs)
	}
}

func TestLoadQueriesMissingFile(t *testing.T) {
	if _, err := loadQueries("", "/nonexistent/q.txt"); err == nil {
		t.Fatal("expected error")
	}
}

// TestAtomicSaveKeepsTargetOnFailure: a save that fails after writing part
// of its output must leave the previous file byte-identical and no
// temporary file behind; a save that succeeds replaces the content.
func TestAtomicSaveKeepsTargetOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "est.bin")
	old := []byte("previous structure")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	errMidway := errors.New("disk full")
	err := atomicSave(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return errMidway
	})
	if !errors.Is(err, errMidway) {
		t.Fatalf("atomicSave error = %v, want %v", err, errMidway)
	}
	expectOnly := func(want []byte) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("target holds %q, want %q", got, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("directory holds %v, want only the target", names)
		}
	}
	expectOnly(old)

	fresh := []byte("retrained structure")
	if err := atomicSave(path, func(w io.Writer) error {
		_, err := w.Write(fresh)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	expectOnly(fresh)
}

package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutput requires the quickstart to print testdata/output.txt, the
// output README's Quickstart runs, byte for byte. After a change that
// moves it on purpose, regenerate the file with
//
//	go run ./examples/quickstart > examples/quickstart/testdata/output.txt
func TestOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("loads NREF at 1/2000 scale and builds 1C; skipped with -short")
	}
	want, err := os.ReadFile("testdata/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("quickstart output differs from testdata/output.txt:\n%s", got.String())
	}
}

package main

import "testing"

// The smoke run keeps every workload compiling, serving and passing its
// answer and digest checks: each at one-twentieth size, no bound
// applied.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes several seconds")
	}
	if err := runSmoke(); err != nil {
		t.Fatal(err)
	}
}

package main

import "testing"

func TestCheckersRejectDamagedInputs(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

package main

import (
	"testing"

	"deadmod/lib"
)

func TestReadsLib(t *testing.T) {
	if lib.ReadByOtherTest() != 4 {
		t.Fatal("ReadByOtherTest")
	}
}

package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if testOnly() != 3 {
		t.Fatal("testOnly")
	}
}

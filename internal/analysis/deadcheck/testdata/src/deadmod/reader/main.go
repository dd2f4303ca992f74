package main

import "deadmod/lib"

func main() { _ = lib.ReadByReader() }

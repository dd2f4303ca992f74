package main

import (
	"fmt"

	"deadmod/lib"
)

func main() { fmt.Println(lib.Live{}.Use(), len(lib.Shapes)) }

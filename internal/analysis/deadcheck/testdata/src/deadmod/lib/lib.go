package lib

// Live is read by the app.
type Live struct{}

// Use is read by the app.
func (Live) Use() int { return one }

func (Live) Unused() {} // want `method Live.Unused has no reader`

const one = 1

const unusedConst = 2 // want `const unusedConst has no reader`

func unusedFunc() {} // want `func unusedFunc has no reader`

// cluster is read only by its own constructor and methods, so the three
// are flagged together.
type cluster struct{ next *cluster } // want `type cluster has no reader`

func newCluster() *cluster { return &cluster{} } // want `func newCluster has no reader`

func (c *cluster) step() *cluster { return c.next } // want `method cluster.step has no reader`

// testOnly and what only it reads serve lib's own test alone.
func testOnly() int { return testHelper() } // want `func testOnly is read only by its own package's tests: move it into a _test.go file`

func testHelper() int { return 3 } // want `func testHelper is read only by its own package's tests`

// ReadByOtherTest is read by the app's test, another package's.
func ReadByOtherTest() int { return 4 }

// ReadByReader is read by the nested reader module.
func ReadByReader() int { return 5 }

// Shape's method is an interface method, never a candidate.
type Shape interface{ Area() float64 }

type square struct{}

// Area satisfies Shape: it lives as long as square does.
func (square) Area() float64 { return 1 }

// Shapes is read by the app.
var Shapes = []Shape{square{}}

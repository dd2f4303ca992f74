package faas

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"dscs/internal/units"
	"dscs/internal/workload"
)

func TestParseYAMLBasics(t *testing.T) {
	src := `
# deployment file
name: demo
storage: s3://bucket
functions:
  preprocess:
    image: dscs/prep:1.0
    accelerated: true
    domain: ml
    timeout: 30s
    memory_mb: 512
  notify:
    image: dscs/notify:1.0
    accelerated: false
    timeout: 15s
chain: [preprocess, notify]
`
	root, err := ParseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	if root.Str("name", "") != "demo" {
		t.Errorf("name = %q", root.Str("name", ""))
	}
	fns, ok := root.Get("functions")
	if !ok || !fns.IsMap() || len(fns.Keys) != 2 {
		t.Fatalf("functions mapping broken: %+v", fns)
	}
	prep := fns.Map["preprocess"]
	if !prep.Bool("accelerated", false) {
		t.Error("accelerated flag lost")
	}
	if prep.Int("memory_mb", 0) != 512 {
		t.Error("memory lost")
	}
	if prep.Duration("timeout", 0) != 30*time.Second {
		t.Error("timeout lost")
	}
	chain, _ := root.Get("chain")
	if len(chain.List) != 2 || chain.List[0] != "preprocess" {
		t.Errorf("chain = %v", chain.List)
	}
}

func TestParseYAMLBlockLists(t *testing.T) {
	src := "steps:\n  - one\n  - two\n  - three\n"
	root, err := ParseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	steps, _ := root.Get("steps")
	if len(steps.List) != 3 || steps.List[2] != "three" {
		t.Errorf("block list = %v", steps.List)
	}
}

func TestParseYAMLQuotes(t *testing.T) {
	root, err := ParseYAML(`name: "hello world"
tag: 'v1'`)
	if err != nil {
		t.Fatal(err)
	}
	if root.Str("name", "") != "hello world" || root.Str("tag", "") != "v1" {
		t.Error("quote stripping broken")
	}
}

func TestParseYAMLErrors(t *testing.T) {
	cases := []string{
		"key without colon",
		" name: odd-indent",
		"a: 1\na: 2",
		"list:\n  - item\nb:\n    - floating deeper", // item at wrong depth
		"flow: [unterminated",
	}
	for i, src := range cases {
		if _, err := ParseYAML(src); err == nil {
			t.Errorf("case %d should fail: %q", i, src)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	src := "name: x\nnested:\n  a: 1\n  b: [p, q]\n"
	root, err := ParseYAML(src)
	if err != nil {
		t.Fatal(err)
	}
	out := MarshalYAML(root)
	root2, err := ParseYAML(out)
	if err != nil {
		t.Fatalf("re-parse failed: %v\n%s", err, out)
	}
	if root2.Str("name", "") != "x" {
		t.Error("round trip lost data")
	}
	nested, _ := root2.Get("nested")
	if nested.Str("a", "") != "1" {
		t.Error("round trip lost nested scalar")
	}
}

func TestDeploymentYAMLForSuite(t *testing.T) {
	for _, b := range workload.Suite() {
		app, err := AppFor(b)
		if err != nil {
			t.Fatalf("%s: %v", b.Slug, err)
		}
		if len(app.Chain) != 3 {
			t.Errorf("%s: chain length %d, want 3", b.Slug, len(app.Chain))
		}
		accel := app.AcceleratedPrefix()
		if len(accel) != 2 {
			t.Errorf("%s: accelerated prefix %v, want [preprocess inference]", b.Slug, accel)
		}
		if app.Functions["notify"].Accelerated {
			t.Errorf("%s: notify must not be accelerated", b.Slug)
		}
		if !strings.Contains(DeploymentYAML(b), "accelerated: true") {
			t.Errorf("%s: YAML missing the acceleration hint", b.Slug)
		}
	}
}

func TestApplicationValidation(t *testing.T) {
	app := &Application{Name: "x", Chain: []string{"missing"}, Functions: map[string]*FunctionSpec{}}
	if err := app.Validate(); err == nil {
		t.Error("chaining an unknown function must fail")
	}
	bad := FunctionSpec{Name: "f", Image: "", Timeout: time.Second}
	if err := bad.Validate(); err == nil {
		t.Error("missing image must fail")
	}
	noDomain := FunctionSpec{Name: "f", Image: "i", Timeout: time.Second, Accelerated: true}
	if err := noDomain.Validate(); err == nil {
		t.Error("accelerated function without domain must fail")
	}
}

func TestColdStartModel(t *testing.T) {
	m := DefaultColdStart()
	slim := Image{Name: "slim", Base: 20 * units.MB}
	fat := Image{Name: "fat", Base: 120 * units.MB, Weights: 400 * units.MB}
	if m.Pull(fat) <= m.Pull(slim) {
		t.Error("bigger images must pull slower")
	}
	if m.Cold(fat) <= m.Pull(fat) {
		t.Error("cold must include weight staging")
	}
	if fat.Size() != 520*units.MB {
		t.Errorf("image size = %v", fat.Size())
	}
}

func TestBreakdownArithmetic(t *testing.T) {
	a := Breakdown{Stack: 1, RemoteRead: 2, Compute: 3, Notify: 4}
	b := Breakdown{Stack: 10, RemoteWrite: 20, DeviceIO: 5, Driver: 6, ColdStart: 7}
	a.Add(b)
	if a.Total() != 58 {
		t.Errorf("total = %d, want 58", a.Total())
	}
}

func TestStackModel(t *testing.T) {
	s := DefaultStackModel()
	if s.PerFunction() != s.Scheduler+s.Gateway+s.Runtime {
		t.Error("PerFunction must sum the parts")
	}
	if s.PerFunction() < 5*time.Millisecond || s.PerFunction() > 30*time.Millisecond {
		t.Errorf("stack overhead %v outside plausible band", s.PerFunction())
	}
}

// TestDeploymentYAMLGolden pins the rendered deployment of every suite
// benchmark to the text committed under testdata/deployment: operators and
// the benchmark harness post this text, so a template change must not move a
// byte of it.
func TestDeploymentYAMLGolden(t *testing.T) {
	for _, b := range workload.Suite() {
		want, err := os.ReadFile(filepath.Join("testdata", "deployment", b.Slug+".yaml"))
		if err != nil {
			t.Fatal(err)
		}
		if got := DeploymentYAML(b); got != string(want) {
			t.Errorf("%s: DeploymentYAML\n%s\nwant\n%s", b.Slug, got, want)
		}
	}
}

// TestAppForMatchesParsedYAML: AppFor builds, without parsing, exactly the
// Application the rendered deployment parses to.
func TestAppForMatchesParsedYAML(t *testing.T) {
	for _, b := range workload.Suite() {
		parsed, err := ParseApplication(DeploymentYAML(b))
		if err != nil {
			t.Fatalf("%s: %v", b.Slug, err)
		}
		built, err := AppFor(b)
		if err != nil {
			t.Fatalf("%s: %v", b.Slug, err)
		}
		if !reflect.DeepEqual(built, parsed) {
			t.Errorf("%s: AppFor = %+v, the parsed YAML gives %+v", b.Slug, built, parsed)
		}
		if got := len(built.AcceleratedPrefix()); got != defaultAccelFuncs {
			t.Errorf("%s: accelerated prefix %d, the template's %d", b.Slug, got, defaultAccelFuncs)
		}
	}
	if _, err := AppFor(&workload.Benchmark{}); err == nil {
		t.Error("a benchmark with no slug must not yield a valid application")
	}
}

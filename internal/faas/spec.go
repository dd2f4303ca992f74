// spec.go defines function and application specifications: the deployment
// metadata developers provide (the paper's extended OpenFaaS YAML with
// in-storage acceleration hints) and its parser.
package faas

import (
	"fmt"
	"strings"
	"time"

	"dscs/internal/units"
	"dscs/internal/workload"
)

// FunctionSpec is one function's deployment configuration.
type FunctionSpec struct {
	Name  string
	Image string
	// Accelerated is the deployment-time hint marking the function as
	// runnable on an in-storage DSA (Section 5.1's YAML extension).
	Accelerated bool
	// Domain names the accelerator domain the function belongs to.
	Domain  string
	Timeout time.Duration
	Memory  units.Bytes
}

// Validate rejects incomplete specs.
func (f FunctionSpec) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("faas: function with empty name")
	}
	if f.Image == "" {
		return fmt.Errorf("faas: function %q has no image", f.Name)
	}
	if f.Timeout <= 0 {
		return fmt.Errorf("faas: function %q has no timeout", f.Name)
	}
	if f.Accelerated && f.Domain == "" {
		return fmt.Errorf("faas: accelerated function %q needs a domain", f.Name)
	}
	return nil
}

// Application is a DAG of functions; the Table 1 pipelines are chains.
type Application struct {
	Name      string
	Functions map[string]*FunctionSpec
	Chain     []string // invocation order
	Storage   string   // bucket the functions exchange data through
}

// Validate checks chain/function consistency.
func (a *Application) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("faas: application with empty name")
	}
	if len(a.Chain) == 0 {
		return fmt.Errorf("faas: application %q has an empty chain", a.Name)
	}
	for _, fn := range a.Chain {
		spec, ok := a.Functions[fn]
		if !ok {
			return fmt.Errorf("faas: application %q chains unknown function %q", a.Name, fn)
		}
		if err := spec.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// AcceleratedPrefix returns the leading run of accelerated functions in the
// chain — the group DSCS-Serverless maps onto one DSCS-Drive (chained
// functions sharing a DSA stay on the drive, Section 5.3).
func (a *Application) AcceleratedPrefix() []string {
	var out []string
	for _, fn := range a.Chain {
		if spec := a.Functions[fn]; spec != nil && spec.Accelerated {
			out = append(out, fn)
			continue
		}
		break
	}
	return out
}

// ParseApplication parses a deployment YAML into an Application.
func ParseApplication(src string) (*Application, error) {
	root, err := ParseYAML(src)
	if err != nil {
		return nil, err
	}
	app := &Application{
		Name:      root.Str("name", ""),
		Storage:   root.Str("storage", ""),
		Functions: map[string]*FunctionSpec{},
	}
	if fns, ok := root.Get("functions"); ok && fns.IsMap() {
		for _, name := range fns.Keys {
			f := fns.Map[name]
			app.Functions[name] = &FunctionSpec{
				Name:        name,
				Image:       f.Str("image", ""),
				Accelerated: f.Bool("accelerated", false),
				Domain:      f.Str("domain", ""),
				Timeout:     f.Duration("timeout", 30*time.Second),
				Memory:      units.Bytes(f.Int("memory_mb", 256)) * units.MB,
			}
		}
	}
	if chain, ok := root.Get("chain"); ok {
		app.Chain = chain.List
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// defaultChain is the deployment every Table 1 benchmark gets: the
// three-function chain with the DSA hints on f1 and f2. DeploymentYAML
// renders it as text and AppFor builds the Application straight from it, so
// the two agree by construction and no caller needs to parse the text back.
var defaultChain = [...]struct {
	name     string
	image    string // "{slug}" stands for the benchmark's slug
	domain   string // set exactly on the accelerated functions
	timeoutS int
	memoryMB int
}{
	{"preprocess", "dscs/{slug}-prep:1.0", "ml", 30, 512},
	{"inference", "dscs/{slug}-model:1.0", "ml", 60, 2048},
	{"notify", "dscs/notify:1.0", "", 15, 128},
}

// defaultAccelFuncs is the length of defaultChain's accelerated prefix: the
// functions the DSCS path schedules on the drive for every suite benchmark.
var defaultAccelFuncs = func() int {
	n := 0
	for n < len(defaultChain) && defaultChain[n].domain != "" {
		n++
	}
	return n
}()

// DeploymentYAML renders the deployment file for a Table 1 benchmark: the
// three-function chain with the DSA hints on f1 and f2.
func DeploymentYAML(b *workload.Benchmark) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "name: %s\nstorage: s3://dscs-%s\nfunctions:\n", b.Slug, b.Slug)
	chain := make([]string, len(defaultChain))
	for i, f := range defaultChain {
		fmt.Fprintf(&sb, "  %s:\n    image: %s\n    accelerated: %t\n",
			f.name, strings.ReplaceAll(f.image, "{slug}", b.Slug), f.domain != "")
		if f.domain != "" {
			fmt.Fprintf(&sb, "    domain: %s\n", f.domain)
		}
		fmt.Fprintf(&sb, "    timeout: %ds\n    memory_mb: %d\n", f.timeoutS, f.memoryMB)
		chain[i] = f.name
	}
	fmt.Fprintf(&sb, "chain: [%s]\n", strings.Join(chain, ", "))
	return sb.String()
}

// AppFor returns the default deployment for a benchmark: the Application
// ParseApplication would read from DeploymentYAML(b).
func AppFor(b *workload.Benchmark) (*Application, error) {
	app := &Application{
		Name:      b.Slug,
		Storage:   "s3://dscs-" + b.Slug,
		Functions: make(map[string]*FunctionSpec, len(defaultChain)),
		Chain:     make([]string, len(defaultChain)),
	}
	for i, f := range defaultChain {
		app.Functions[f.name] = &FunctionSpec{
			Name:        f.name,
			Image:       strings.ReplaceAll(f.image, "{slug}", b.Slug),
			Accelerated: f.domain != "",
			Domain:      f.domain,
			Timeout:     time.Duration(f.timeoutS) * time.Second,
			Memory:      units.Bytes(f.memoryMB) * units.MB,
		}
		app.Chain[i] = f.name
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

package compiler

import (
	"testing"
	"testing/quick"

	"dscs/internal/dsa"
	"dscs/internal/isa"
	"dscs/internal/model"
	"dscs/internal/units"
)

func compileOrDie(t *testing.T, g *model.Graph, batch int, cfg dsa.Config) *isa.Program {
	t.Helper()
	p, err := Compile(g, batch, cfg, Options{})
	if err != nil {
		t.Fatalf("compile %s: %v", g.Name, err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("program invalid: %v", err)
	}
	return p
}

func TestCompileAllZooModels(t *testing.T) {
	cfg := dsa.PaperOptimal()
	zoo := []*model.Graph{
		model.LogisticRegressionCredit(4096), model.ResNet50(),
		model.SSDMobileNetPPE(), model.BERTBaseChatbot(),
		model.MarianTranslation(), model.InceptionV3Clinical(),
		model.ResNet18Moderation(), model.ViTRemoteSensing(),
	}
	for _, g := range zoo {
		p := compileOrDie(t, g, 1, cfg)
		// Depthwise convolutions are mapped to the VPU, so their MACs
		// leave the MPU count and reappear as vector lane-ops.
		if p.MACs() != g.MACs()-dwMACs(g) {
			t.Errorf("%s: program MACs %d != MPU-expected %d",
				g.Name, p.MACs(), g.MACs()-dwMACs(g))
		}
		if len(p.Instrs) < 3 {
			t.Errorf("%s: suspiciously small program (%d instrs)", g.Name, len(p.Instrs))
		}
	}
}

func TestBatchScalesMACs(t *testing.T) {
	cfg := dsa.PaperOptimal()
	g := model.ResNet18Moderation()
	p1 := compileOrDie(t, g, 1, cfg)
	p8 := compileOrDie(t, g, 8, cfg)
	if p8.MACs() != 8*p1.MACs() {
		t.Errorf("batch-8 MACs = %d, want 8x %d", p8.MACs(), p1.MACs())
	}
}

func TestWeightReuseAcrossBatch(t *testing.T) {
	// For a weighted model, per-item weight DRAM traffic must shrink
	// sharply with batch (the paper's Figure 14 batching mechanism): a
	// resident weight panel is reused across every item in the batch.
	cfg := dsa.PaperOptimal()
	g := model.BERTBaseChatbot()
	p1 := compileOrDie(t, g, 1, cfg)
	p64 := compileOrDie(t, g, 64, cfg)
	w1, w64 := weightBytes(p1), weightBytes(p64)
	if w64/64 > w1/4 {
		t.Errorf("per-item weight traffic should shrink >4x with batch 64: %v -> %v per item",
			w1, w64/64)
	}
	// Total DRAM traffic grows sublinearly for weight-heavy models.
	if p64.DRAMBytes() >= 32*p1.DRAMBytes() {
		t.Errorf("DRAM traffic should be sublinear in batch: %v -> %v",
			p1.DRAMBytes(), p64.DRAMBytes())
	}
}

// dwMACs totals a graph's depthwise-convolution MACs (VPU-mapped).
func dwMACs(g *model.Graph) int64 {
	var n int64
	for _, l := range g.Layers {
		if l.Kind == model.DepthwiseConv2D {
			m, k, nn, c, _ := l.GEMMDims()
			n += int64(m) * int64(k) * int64(nn) * int64(c)
		}
	}
	return n
}

func weightBytes(p *isa.Program) units.Bytes {
	var n units.Bytes
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.OpGEMMLoop {
			n += p.Instrs[i].WeightBytes
		}
	}
	return n
}

func TestTilesRespectBuffers(t *testing.T) {
	cfgs := []dsa.Config{
		dsa.PaperOptimal(),
		smallCfg(),
		func() dsa.Config {
			c := dsa.PaperOptimal()
			c.Rows, c.Cols = 1024, 1024
			return c.WithBuffers(32 * units.MiB)
		}(),
	}
	zoo := []*model.Graph{model.ResNet50(), model.BERTBaseChatbot()}
	for _, cfg := range cfgs {
		for _, g := range zoo {
			p := compileOrDie(t, g, 1, cfg)
			for i := range p.Instrs {
				in := &p.Instrs[i]
				if in.Op != isa.OpGEMMLoop {
					continue
				}
				if in.TileK > cfg.Rows || in.TileN > cfg.Cols {
					t.Fatalf("%v %s: tile (%d,%d,%d) exceeds array %dx%d",
						cfg, in.Layer, in.TileM, in.TileK, in.TileN, cfg.Rows, cfg.Cols)
				}
				if units.Bytes(in.TileM*in.TileK) > cfg.InputBuf/2 && in.TileM > 1 {
					t.Fatalf("%v %s: input tile overflows half-buffer", cfg, in.Layer)
				}
				if units.Bytes(4*in.TileM*in.TileN) > cfg.OutputBuf/2 && in.TileM > 1 {
					t.Fatalf("%v %s: output tile overflows half-buffer", cfg, in.Layer)
				}
			}
		}
	}
}

func smallCfg() dsa.Config {
	c := dsa.Config{
		Name: "small", Rows: 4, Cols: 4, VPULanes: 4,
		Freq: units.GHz, DRAM: 0, DoubleBuffered: true,
	}
	return c.WithBuffers(128 * units.KiB)
}

func TestFusionReducesDRAM(t *testing.T) {
	cfg := dsa.PaperOptimal()
	g := model.ResNet18Moderation()
	fused, err := Compile(g, 1, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	unfused, err := Compile(g, 1, cfg, Options{DisableFusion: true})
	if err != nil {
		t.Fatal(err)
	}
	if fused.DRAMBytes() >= unfused.DRAMBytes() {
		t.Errorf("fusion must cut DRAM traffic: fused %v >= unfused %v",
			fused.DRAMBytes(), unfused.DRAMBytes())
	}
	// Unfused programs carry extra vector passes.
	if len(unfused.Instrs) <= len(fused.Instrs) {
		t.Error("unfused program should have more instructions")
	}
}

func TestDataflowSelection(t *testing.T) {
	cfg := dsa.PaperOptimal()
	// A layer with tiny weights and a huge activation panel must keep the
	// weights resident (weight-stationary, weights read once).
	g := model.NewGraph("t", 256, 256, 32)
	g.Conv("c", 64, 1, 1, 0, model.NoAct)
	p := compileOrDie(t, g, 1, cfg)
	var in *isa.Instr
	for i := range p.Instrs {
		if p.Instrs[i].Op == isa.OpGEMMLoop {
			in = &p.Instrs[i]
		}
	}
	if in == nil {
		t.Fatal("no GEMM emitted")
	}
	if in.WeightBytes != units.Bytes(32*64) {
		t.Errorf("weights should be read once: %v", in.WeightBytes)
	}
	if in.InputBytes != units.Bytes(256*256*32) {
		t.Errorf("inputs should be read once when weights resident: %v", in.InputBytes)
	}
}

func TestInputOutputStaging(t *testing.T) {
	cfg := dsa.PaperOptimal()
	g := model.ResNet50()
	p := compileOrDie(t, g, 2, cfg)
	first, last := p.Instrs[0], p.Instrs[len(p.Instrs)-1]
	if first.Op != isa.OpLoad || first.Bytes != units.Bytes(2*224*224*3) {
		t.Errorf("input staging wrong: %+v", first)
	}
	if last.Op != isa.OpStore || last.Bytes != 2*1000 {
		t.Errorf("output staging wrong: %+v", last)
	}
}

func TestCompileErrors(t *testing.T) {
	cfg := dsa.PaperOptimal()
	if _, err := Compile(model.ResNet50(), 0, cfg, Options{}); err == nil {
		t.Error("batch 0 must fail")
	}
	bad := cfg
	bad.Rows = 0
	if _, err := Compile(model.ResNet50(), 1, bad, Options{}); err == nil {
		t.Error("invalid config must fail")
	}
}

func TestAttentionReplicatesPerBatch(t *testing.T) {
	cfg := dsa.PaperOptimal()
	g := model.NewSequenceGraph("attn", 128)
	g.BatchMatMul("scores", 128, 64, 128, 12)
	p4 := compileOrDie(t, g, 4, cfg)
	var in *isa.Instr
	for i := range p4.Instrs {
		if p4.Instrs[i].Op == isa.OpGEMMLoop {
			in = &p4.Instrs[i]
		}
	}
	if in.Count != 48 {
		t.Errorf("attention count = %d, want 12 heads x 4 batch", in.Count)
	}
}

func TestTileChoiceProperty(t *testing.T) {
	cfg := dsa.PaperOptimal()
	f := func(m, k, n uint16) bool {
		M, K, N := int(m%2048)+1, int(k%2048)+1, int(n%2048)+1
		g := model.NewSequenceGraph("p", 1)
		g.BatchMatMul("mm", M, K, N, 1)
		p, err := Compile(g, 1, cfg, Options{})
		if err != nil {
			return false
		}
		for i := range p.Instrs {
			in := &p.Instrs[i]
			if in.Op != isa.OpGEMMLoop {
				continue
			}
			if in.TileM < 1 || in.TileK < 1 || in.TileN < 1 {
				return false
			}
			if in.TileM > in.M || in.TileK > in.K || in.TileN > in.N {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Package workload defines the paper's Table 1 benchmark suite: eight
// real-world serverless applications, each a three-function chain
// (data pre-processing, ML/DNN inference, notification) with its model,
// request payload, intermediate tensor, and result sizes.
package workload

import (
	"sync"

	"dscs/internal/model"
	"dscs/internal/units"
)

// Benchmark is one Table 1 application.
type Benchmark struct {
	Name string // figure label, e.g. "PPE Detection"
	Slug string // machine name, e.g. "ppe-detection"
	// Description summarizes the AWS case study the pipeline mirrors.
	Description string

	// Preproc is Function 1's computation (parse/resize/normalize/
	// tokenize), expressed as a graph of vector ops so every platform —
	// including the DSA's VPU — executes it through the same path.
	Preproc *model.Graph
	// Model is Function 2's inference network.
	Model *model.Graph

	// Request payload sizes through the chain (per invocation, batch 1).
	InputBytes        units.Bytes // raw request landing in the object store
	IntermediateBytes units.Bytes // f1 output / f2 input tensor
	OutputBytes       units.Bytes // f2 result read by f3
	NotifyBytes       units.Bytes // f3 egress payload
}

// prepGraph builds a Function-1 graph: a parse/decode stage over the raw
// payload and a transform stage over the produced tensor.
func prepGraph(name string, rawElems, tensorElems int64) *model.Graph {
	g := model.NewFeatureGraph(name, int(rawElems))
	g.Prep("decode", rawElems)
	g.Prep("transform", tensorElems)
	return g
}

// constructors lists the suite in the paper's Table 1 order, each entry
// under the slug its constructor assigns, so BySlug builds the one
// benchmark asked for instead of all eight model graphs.
var constructors = [...]struct {
	slug  string
	build func() *Benchmark
}{
	{"credit-risk", CreditRisk},
	{"asset-damage", AssetDamage},
	{"ppe-detection", PPEDetection},
	{"chatbot", Chatbot},
	{"translation", Translation},
	{"clinical", Clinical},
	{"moderation", Moderation},
	{"remote-sensing", RemoteSensing},
}

// catalogue holds the process's one copy of each suite benchmark, built on
// first request: a benchmark is immutable, so every environment, runner and
// workflow can read the same object, and a runner's plan for it (keyed by
// the object) survives every later lookup of the slug.
var catalogue [len(constructors)]struct {
	once sync.Once
	b    *Benchmark
}

// shared returns the catalogue's benchmark for constructors[i].
func shared(i int) *Benchmark {
	e := &catalogue[i]
	e.once.Do(func() { e.b = constructors[i].build() })
	return e.b
}

// Suite returns the eight benchmarks in the paper's Table 1 order. The
// slice is the caller's; the benchmarks are the process-wide catalogue's,
// shared with every other caller, and must not be mutated: copy one, or
// call its constructor, to get a private benchmark.
func Suite() []*Benchmark {
	suite := make([]*Benchmark, len(constructors))
	for i := range constructors {
		suite[i] = shared(i)
	}
	return suite
}

// BySlug returns the named benchmark, or nil. Like Suite's, the benchmark
// is the shared catalogue's and must not be mutated; every call for a slug
// returns the same object.
func BySlug(slug string) *Benchmark {
	for i, c := range constructors {
		if c.slug == slug {
			return shared(i)
		}
	}
	return nil
}

// CreditRisk is the IBM SPSS-style loan scoring pipeline: a batch of 4096
// records scored by binary logistic regression. Communication-dominated
// (>=70% in Figure 4) with near-zero compute — the paper's lowest-speedup
// benchmark.
func CreditRisk() *Benchmark {
	const records = 4096
	raw := units.Bytes(records * 64) // 64B per record CSV row
	return &Benchmark{
		Name:        "Credit Risk Assessment",
		Slug:        "credit-risk",
		Description: "Binary logistic regression over loan applications (IBM SPSS case study)",
		Preproc:     prepGraph("credit-prep", int64(raw), records*64),
		Model:       model.LogisticRegressionCredit(records),
		InputBytes:  raw,
		// 64 fp32 features per record.
		IntermediateBytes: records * 64 * 4,
		OutputBytes:       records * 8, // score + decision per record
		NotifyBytes:       16 * units.KB,
	}
}

// AssetDamage is the Lookout-for-Vision style defect detector: a 1080p
// inspection photo classified by ResNet-50.
func AssetDamage() *Benchmark {
	raw := units.Bytes(3 * units.MB) // 1080p photo
	tensorElems := int64(224 * 224 * 3)
	return &Benchmark{
		Name:              "Asset Damage Detection",
		Slug:              "asset-damage",
		Description:       "Industrial damage classification (AWS Lookout for Vision case study)",
		Preproc:           prepGraph("asset-prep", int64(raw)/4, tensorElems*12),
		Model:             model.ResNet50(),
		InputBytes:        raw,
		IntermediateBytes: units.Bytes(tensorElems) * 4,
		OutputBytes:       4 * units.KB,
		NotifyBytes:       8 * units.KB,
	}
}

// PPEDetection is the Rekognition PPE pipeline: a burst of three site-camera
// frames pushed through an SSD detector at 640x640. The largest payloads in
// the suite — the paper's highest-gain benchmark because the in-storage path
// eliminates the most data movement.
func PPEDetection() *Benchmark {
	const frames = 3
	raw := units.Bytes(frames) * units.Bytes(6200*units.KB) // 1080p raw frames
	tensorElems := int64(frames) * 640 * 640 * 3
	return &Benchmark{
		Name:              "PPE Detection",
		Slug:              "ppe-detection",
		Description:       "Personal protective equipment detection on site cameras (Amazon Rekognition)",
		Preproc:           prepGraph("ppe-prep", int64(raw)/4, tensorElems*10),
		Model:             model.SSDMobileNetPPE(),
		InputBytes:        raw,
		IntermediateBytes: units.Bytes(tensorElems) * 4,
		OutputBytes:       96 * units.KB, // boxes + classes per frame
		NotifyBytes:       32 * units.KB,
	}
}

// Chatbot is the serverless-bot-framework conversational pipeline: a BERT
// intent encoder over a short utterance. Tiny payloads, heavy model.
func Chatbot() *Benchmark {
	raw := units.Bytes(4 * units.KB)
	return &Benchmark{
		Name:              "Conversational Chatbot",
		Slug:              "chatbot",
		Description:       "Intent understanding for a serverless bot (AWS serverless-bot-framework)",
		Preproc:           prepGraph("chat-prep", int64(raw), 128*32),
		Model:             model.BERTBaseChatbot(),
		InputBytes:        raw,
		IntermediateBytes: 128 * 4, // token ids
		OutputBytes:       2 * units.KB,
		NotifyBytes:       4 * units.KB,
	}
}

// Translation is the AWS Translate style document pipeline: a Marian
// encoder-decoder over a 256-token document.
func Translation() *Benchmark {
	raw := units.Bytes(100 * units.KB)
	return &Benchmark{
		Name:              "Document Translation",
		Slug:              "translation",
		Description:       "Neural machine translation of documents (AWS Translate)",
		Preproc:           prepGraph("translate-prep", int64(raw), 256*64),
		Model:             model.MarianTranslation(),
		InputBytes:        raw,
		IntermediateBytes: 256 * 4,
		OutputBytes:       120 * units.KB, // translated document
		NotifyBytes:       8 * units.KB,
	}
}

// Clinical is the acute leukemia classification pipeline: microscopy images
// through Inception-v3 (the Intel/IBM clinical case study).
func Clinical() *Benchmark {
	raw := units.Bytes(2 * units.MB)
	tensorElems := int64(299 * 299 * 3)
	return &Benchmark{
		Name:              "Clinical Analysis",
		Slug:              "clinical",
		Description:       "Acute myeloid/lymphoblastic leukemia classification (Inception-v3)",
		Preproc:           prepGraph("clinical-prep", int64(raw)/4, tensorElems*10),
		Model:             model.InceptionV3Clinical(),
		InputBytes:        raw,
		IntermediateBytes: units.Bytes(tensorElems) * 4,
		OutputBytes:       4 * units.KB,
		NotifyBytes:       8 * units.KB,
	}
}

// Moderation is the Rekognition content-moderation pipeline: social-media
// images through a compact CNN. Communication-dominated (Figure 4).
func Moderation() *Benchmark {
	raw := units.Bytes(2 * units.MB)
	tensorElems := int64(224 * 224 * 3)
	return &Benchmark{
		Name:              "Content Moderation",
		Slug:              "moderation",
		Description:       "Unsafe-content detection for social media (Amazon Rekognition moderation)",
		Preproc:           prepGraph("moderation-prep", int64(raw)/4, tensorElems*10),
		Model:             model.ResNet18Moderation(),
		InputBytes:        raw,
		IntermediateBytes: units.Bytes(tensorElems) * 4,
		OutputBytes:       4 * units.KB,
		NotifyBytes:       8 * units.KB,
	}
}

// RemoteSensing is the SDG&E wildfire-detection pipeline from the paper's
// introduction: drone imagery through a vision transformer.
func RemoteSensing() *Benchmark {
	raw := units.Bytes(4 * units.MB) // drone survey tile
	tensorElems := int64(224 * 224 * 3)
	return &Benchmark{
		Name:              "Remote Sensing",
		Slug:              "remote-sensing",
		Description:       "Wildfire detection from drone imagery (SDG&E / ViT case study)",
		Preproc:           prepGraph("remote-prep", int64(raw)/4, tensorElems*12),
		Model:             model.ViTRemoteSensing(),
		InputBytes:        raw,
		IntermediateBytes: units.Bytes(tensorElems) * 4,
		OutputBytes:       4 * units.KB,
		NotifyBytes:       16 * units.KB,
	}
}

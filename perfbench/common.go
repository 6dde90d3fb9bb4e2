package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ehr"
	"repro/internal/explain"
	"repro/internal/relation"
	"repro/internal/schemagraph"
)

// catalog is the full hand-crafted template catalog, 20 templates, as
// ebaudit registers it.
func catalog() []explain.Template { return explain.Handcrafted(true, true).All() }

func schemaGraph() *schemagraph.Graph { return ehr.SchemaGraph(ehr.DefaultGraphOptions()) }

// newAuditor configures an auditor over db the way ebaudit does over an
// opened store: the persisted Groups table is reused and the full catalog
// registered.
func newAuditor(db *relation.Database) *core.Auditor {
	a := core.NewAuditor(db, schemaGraph())
	a.AddTemplates(catalog()...)
	return a
}

// ndjsonReport is the wire form of one report, field for field the NDJSON
// line `ebaudit audit -stream` writes.
type ndjsonReport struct {
	Lid          int64               `json:"lid"`
	Date         string              `json:"date"`
	User         string              `json:"user"`
	Patient      string              `json:"patient"`
	UserName     string              `json:"userName"`
	Explained    bool                `json:"explained"`
	Explanations []ndjsonExplanation `json:"explanations,omitempty"`
}

type ndjsonExplanation struct {
	Template string `json:"template"`
	Length   int    `json:"length"`
	Text     string `json:"text"`
}

func toNDJSON(rep core.AccessReport) ndjsonReport {
	out := ndjsonReport{
		Lid:       rep.Lid,
		Date:      rep.Date.String(),
		User:      rep.User.String(),
		Patient:   rep.Patient.String(),
		UserName:  rep.UserName,
		Explained: rep.Explained(),
	}
	for _, e := range rep.Explanations {
		out.Explanations = append(out.Explanations, ndjsonExplanation{
			Template: e.Template, Length: e.Length, Text: e.Text,
		})
	}
	return out
}

// sink encodes reports as NDJSON into a SHA-256 digest, the stand-in for
// ebaudit's stdout, and counts what it saw. With timed set it also sums the
// time spent encoding.
type sink struct {
	h            hash.Hash
	enc          *json.Encoder
	timed        bool
	busy         time.Duration
	reports      int
	explained    int
	explanations int
	// pairs, when non-nil, collects each report's explaining template
	// names, in report order.
	pairs [][]string
}

func newSink(timed bool) *sink {
	h := sha256.New()
	return &sink{h: h, enc: json.NewEncoder(h), timed: timed}
}

func (s *sink) write(rep core.AccessReport) error {
	var t0 time.Time
	if s.timed {
		t0 = time.Now()
	}
	s.reports++
	if rep.Explained() {
		s.explained++
	}
	s.explanations += len(rep.Explanations)
	if s.pairs != nil {
		var names []string
		for _, e := range rep.Explanations {
			if len(names) == 0 || names[len(names)-1] != e.Template {
				names = append(names, e.Template)
			}
		}
		s.pairs = append(s.pairs, names)
	}
	err := s.enc.Encode(toNDJSON(rep))
	if s.timed {
		s.busy += time.Since(t0)
	}
	return err
}

func (s *sink) digest() string { return fmt.Sprintf("%x", s.h.Sum(nil)) }

// collectGarbage runs a garbage collection before a timed operation, in
// its own span. A starting process has no garbage from earlier operations
// to collect; without this, one operation's GC debt would be paid inside
// the next one's time and would raise its peak memory.
func collectGarbage(r *run) {
	end := r.tr.span("bench.gc")
	runtime.GC()
	end()
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(dst, src string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

package main

// SARIF 2.1.0 output for code-scanning upload. Only the subset GitHub's
// code-scanning ingestion reads is emitted: tool.driver with one
// reportingDescriptor per analyzer (plus the directive audit's
// "unusedsuppress" and "directive" pseudo-analyzers), and one result per
// diagnostic with a physical location.

import (
	"encoding/json"
	"go/token"
	"io"
	"path/filepath"

	"repro/internal/analysis"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

// auditRules are the pseudo-analyzers of analysis.Run's directive audit.
var auditRules = []sarifRule{
	{ID: "unusedsuppress", ShortDescription: sarifText{Text: "flag //lint: directives that no longer suppress any diagnostic"}},
	{ID: "directive", ShortDescription: sarifText{Text: "//lint: suppression directives must be well-formed"}},
}

// WriteSARIF serializes the diagnostics as one SARIF run. Results keep
// the deterministic sort the text output uses, so the report is
// byte-stable for identical inputs.
func WriteSARIF(w io.Writer, fset *token.FileSet, analyzers []*analysis.Analyzer, diags []analysis.Diagnostic) error {
	rules := make([]sarifRule, 0, len(analyzers)+len(auditRules))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	rules = append(rules, auditRules...)
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(pos.Filename)},
					Region:           sarifRegion{StartLine: pos.Line, StartColumn: pos.Column},
				},
			}},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "verus-lint", Rules: rules}},
			Results: results,
		}},
	})
}

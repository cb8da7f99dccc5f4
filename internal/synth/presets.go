package synth

import (
	"fmt"
	"math"

	"prefcover/internal/graph"
)

// Preset names the four datasets of the paper's Table 2. PE/PF/PM mirror
// the private e-commerce domains (Electronics, Fashion, Motors); YC mirrors
// the public YooChoose RecSys-2015 clickstream.
type Preset string

const (
	PE Preset = "PE" // Electronics: largest, Independent-fitting
	PF Preset = "PF" // Fashion: Independent-fitting
	PM Preset = "PM" // Motors: parts & accessories, Normalized-fitting
	YC Preset = "YC" // YooChoose: small catalog, ~2.8% purchase rate, Independent
)

// Presets lists all presets in Table 2 order.
func Presets() []Preset { return []Preset{PE, PF, PM, YC} }

// presetShape captures the full-scale Table 2 numbers.
type presetShape struct {
	items    int
	sessions int
	// purchaseRate is purchases/sessions (the private datasets were
	// requested as purchase-only).
	purchaseRate float64
	regime       Regime
	// zipfS tunes popularity skew per domain: fashion flatter, motors
	// spikier.
	zipfS float64
}

var presetShapes = map[Preset]presetShape{
	PE: {items: 1921701, sessions: 10782918, purchaseRate: 1.0, regime: RegimeIndependent, zipfS: 1.05},
	PF: {items: 1681625, sessions: 8630541, purchaseRate: 1.0, regime: RegimeIndependent, zipfS: 0.95},
	PM: {items: 1396674, sessions: 8154160, purchaseRate: 1.0, regime: RegimeSingleAlternative, zipfS: 1.1},
	YC: {items: 52739, sessions: 9249729, purchaseRate: 259579.0 / 9249729.0, regime: RegimeIndependent, zipfS: 1.05},
}

// PresetSpecs returns the catalog and session specs for a preset at the
// given scale factor in (0, 1]: item and session counts are multiplied by
// scale (floored, with small minimums so tiny scales stay usable). The
// full-scale paper shape is scale == 1.
func PresetSpecs(p Preset, scale float64, seed int64) (CatalogSpec, SessionSpec, error) {
	shape, ok := presetShapes[p]
	if !ok {
		return CatalogSpec{}, SessionSpec{}, fmt.Errorf("synth: unknown preset %q", p)
	}
	if scale <= 0 || scale > 1 {
		return CatalogSpec{}, SessionSpec{}, fmt.Errorf("synth: scale %g outside (0,1]", scale)
	}
	items := scaledCount(shape.items, scale, 200)
	sessions := scaledCount(shape.sessions, scale, 2000)
	cat := CatalogSpec{
		Items:             items,
		Categories:        1 + items/40, // ~40 items per substitution neighborhood
		BrandsPerCategory: 6,
		PriceTiers:        8,
		ZipfS:             shape.zipfS,
		Seed:              seed,
	}
	ses := SessionSpec{
		Sessions:     sessions,
		PurchaseRate: shape.purchaseRate,
		Regime:       shape.regime,
		Seed:         seed + 1,
	}
	if shape.regime == RegimeSingleAlternative {
		// Keep the single-alternative share just above the paper's 90%
		// bar.
		ses.Contamination = 0.07
	}
	return cat, ses, nil
}

func scaledCount(full int, scale float64, min int) int {
	n := int(math.Floor(float64(full) * scale))
	if n < min {
		n = min
	}
	return n
}

// PresetGraphSpec returns a direct-graph generation spec whose node count
// and degree structure match the preset at the given scale; used by the
// scalability experiments which need graphs, not sessions.
func PresetGraphSpec(p Preset, scale float64, seed int64) (GraphSpec, error) {
	shape, ok := presetShapes[p]
	if !ok {
		return GraphSpec{}, fmt.Errorf("synth: unknown preset %q", p)
	}
	if scale <= 0 || scale > 1 {
		return GraphSpec{}, fmt.Errorf("synth: scale %g outside (0,1]", scale)
	}
	spec := GraphSpec{
		Nodes:        scaledCount(shape.items, scale, 200),
		AvgOutDegree: 4.8, // Table 2: edges/items is 4.2-4.8 across datasets
		ZipfS:        shape.zipfS,
		Seed:         seed,
	}
	if shape.regime == RegimeSingleAlternative {
		spec.Variant = graph.Normalized
	}
	return spec, nil
}

package hpccg

import (
	"repro/internal/kernels"
	"repro/internal/scenario"
)

// BindWitness is the registry's runner for cfg, returned together with a
// view of its block memo: the generated block for each (hasBelow,
// hasAbove) key, nil where no rank needed it. Read the view only once
// every run through the runner has finished.
func BindWitness(cfg Config) (scenario.AppRun, func(hasBelow, hasAbove bool) *kernels.CSR) {
	blocks := newBlockMemo(cfg)
	view := func(hasBelow, hasAbove bool) *kernels.CSR {
		k := 0
		if hasBelow {
			k |= 1
		}
		if hasAbove {
			k |= 2
		}
		return blocks.slots[k].m
	}
	return bind(cfg, blocks), view
}

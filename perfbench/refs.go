package main

// pinned holds each cell's reference output and modeled outcome. The
// checksums come from the committed campaign artifacts (BENCH_2 for the
// 4-node kernels, BENCH_7 for the 256-node rack cells, BENCH_8 for the
// serve headline cell at seed 1009). Virtual ns and protocol messages
// come from BENCH_2 and BENCH_7 where those record them, otherwise from
// one run on a 2-core host when this benchmark was introduced. A cell
// whose model differs from its pin counts toward
// model.virtual_drift_cells; that count is reported, never a failure.
var pinned = map[string]reference{
	"scope/matmult": {output{check: 1355.25}, 29131036, 166},
	"scope/sor-opt": {output{check: 200.02443556617072}, 24752068, 186},
	"scope/lu":      {output{check: 9207.103444030668}, 132086881, 1020},
	"scope/stream":  {output{check: 67125248}, 245517936, 1842},
	"ivy/matmult":   {output{check: 1355.25}, 26708068, 158},
	"ivy/sor-opt":   {output{check: 200.02443556617072}, 26525928, 176},
	"ivy/lu":        {output{check: 9207.103444030668}, 125118857, 798},
	"ivy/stream":    {output{check: 67125248}, 316616056, 3321},

	"scope/sor-opt-strong": {output{check: 133.544677734375}, 40342320, 9157},
	"scope/stream-weak":    {output{check: 268419072}, 597971490, 102510},
	"ivy/sor-opt-strong":   {output{check: 133.544677734375}, 36870400, 14586},
	"ivy/stream-weak":      {output{check: 268419072}, 801433480, 273958},
	"core/water":           {output{check: 2528.759999}, 152745981, 1723},

	"scope/kv@1009": {output{sum: 0xd7719f4f53a0f9ca, ops: 2137301}, 4122148718, 146139},
}

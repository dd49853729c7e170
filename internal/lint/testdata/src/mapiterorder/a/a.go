// Package a exercises the mapiterorder analyzer: order-dependent effects
// inside range-over-map bodies are flagged; the collect-then-sort idiom,
// commutative integer accumulation and loop-local state are allowed.
package a

import (
	"fmt"
	"sort"
	"strings"
)

func appendWithoutSort(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to out inside range over map captures the random iteration order`
	}
	return out
}

func collectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func collectThenSortSlice(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// The sort must name the append target: sorting a reslice of it leaves
// the collected order as the map produced it.
func sortsAnotherSlice(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over map captures the random iteration order`
	}
	sort.Slice(keys[:0], func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Local helpers named sort*/Sort* count as the sorting step too (the wire
// package's sortFlowCounts-style helpers).
func collectThenSortHelper(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortKeys(keys)
	return keys
}

func sortKeys(keys []string) { sort.Strings(keys) }

func floatAccumulation(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `floating-point accumulation into sum inside range over map`
	}
	return sum
}

func floatAccumulationPlain(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum = sum + v // want `floating-point accumulation into sum inside range over map`
	}
	return sum
}

// Integer sums are commutative and associative: order cannot show.
func intAccumulation(m map[string]int64) int64 {
	var sum int64
	for _, v := range m {
		sum += v
	}
	return sum
}

func printing(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt\.Println inside range over map emits output in random iteration order`
	}
}

func writing(m map[string]int, b *strings.Builder) {
	for k := range m {
		b.WriteString(k) // want `b\.WriteString inside range over map writes in random iteration order`
	}
}

// Loop-local state cannot leak iteration order.
func loopLocal(m map[string][]int) int {
	total := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		total += len(local)
	}
	return total
}

// Writes into another map are order-insensitive (set semantics).
func mapToMap(m map[string]int) map[string]bool {
	out := map[string]bool{}
	for k := range m {
		out[k] = true
	}
	return out
}

func suppressed(m map[string]int) []string {
	var out []string
	for k := range m {
		//lint:ignore mapiterorder order handled by caller
		out = append(out, k)
	}
	return out
}

// Package maporderdata ranges over maps with order-insensitive
// bodies: the collect-keys-then-sort idiom, commutative accumulation,
// and an annotated loop. The maporder analyzer must stay silent.
package maporderdata

import (
	"fmt"
	"sort"
)

func collectThenSort(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}

func accumulates(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

func inverts(m map[string]int) map[int]string {
	out := map[int]string{}
	for k, v := range m {
		out[v] = k
	}
	return out
}

func annotated(m map[string]int) {
	//upcvet:maporder -- exercising the suppression; order is deliberately visible
	for k := range m {
		fmt.Println(k)
	}
}

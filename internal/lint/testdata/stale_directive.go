// Fixture for ignore directives that suppress nothing: one over a range
// maprange does not flag (a slice), one naming no analyzer (a misspelling),
// and one in use.
package fixture

func sliceSum(s []int) int {
	t := 0
	//simlint:ignore maprange -- stale: the loop ranges a slice
	for _, v := range s {
		t += v
	}
	return t
}

func misspelt(m map[string]int) int {
	t := 0
	//simlint:ignore mapragne -- the analyzer's name is misspelt
	for _, v := range m {
		t += v
	}
	return t
}

func used(m map[string]int) int {
	t := 0
	for _, v := range m { //simlint:ignore maprange -- integer sum over an unordered set commutes
		t += v
	}
	return t
}

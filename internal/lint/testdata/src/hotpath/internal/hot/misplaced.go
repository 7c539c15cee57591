package hot

import "fmt"

// Misplaced carries its tag on the line that opens its body, outside its
// doc comment, so the tag tags nothing and the formatting below is not
// checked.
func Misplaced(n int) string { //mklint:hotpath
	// want-above allow "tags no function"
	return fmt.Sprint(n)
}

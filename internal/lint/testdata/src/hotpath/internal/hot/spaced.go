// The file tag below has two spaces before its argument; it still reads
// "file", so every function in this file is hot.
//
//mklint:hotpath  file
package hot

import "fmt"

// Spaced formats in a function tagged by the spaced file tag.
func Spaced(n int) string {
	return fmt.Sprint(n) // want hotpath "fmt.Sprint"
}

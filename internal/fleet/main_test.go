package fleet

import (
	"os"
	"testing"

	"csspgo/internal/surfacetest"
)

// Every test here must stop the goroutines it starts: fetches, servers,
// refresh loops.
func TestMain(m *testing.M) { os.Exit(surfacetest.RunWithoutLeaks(m)) }

package surfacetest

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// leakGrace is how long the goroutine count may take to come back after
// the tests: closed listeners and cancelled requests unwind asynchronously.
const leakGrace = 5 * time.Second

// RunWithoutLeaks runs a package's tests (call it from TestMain) and then
// requires the goroutine count to come back to what it was before them
// within leakGrace. A goroutine that outlives every test (a fetch nobody
// cancels, a server nobody shuts down) fails the package: every stack is
// printed and the exit code becomes non-zero.
func RunWithoutLeaks(m *testing.M) int {
	before, _ := goroutines()
	code := m.Run()
	deadline := time.Now().Add(leakGrace)
	for {
		n, stacks := goroutines()
		if n <= before {
			return code
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines %v after the tests, %d before\n\n%s\n", n, leakGrace, before, stacks)
			return max(code, 1)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutines counts the running goroutines and returns their stacks. The
// os/signal loop is left out: the fuzzing engine starts it to catch an
// interrupt, and it lives as long as the process.
func goroutines() (int, []byte) {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if !bytes.Contains(g, []byte("os/signal.signal_recv")) {
			n++
		}
	}
	return n, buf
}

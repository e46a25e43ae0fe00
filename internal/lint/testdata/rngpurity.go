// Fixture for the rngpurity analyzer; type-checked under an
// internal/-scoped import path (anything but internal/rng).
package fixture

import (
	"crypto/rand"     // want `rngpurity: import of crypto/rand`
	mrand "math/rand" // want `rngpurity: import of math/rand`
	"os"
	"time"
)

func draws(buf []byte) int64 {
	_, _ = rand.Read(buf)
	return mrand.Int63()
}

func clockReads() time.Duration {
	start := time.Now()      // want `call to time.Now`
	return time.Since(start) // want `call to time.Since`
}

func pid() int {
	return os.Getpid() // want `call to os.Getpid`
}

func environment() (string, bool) {
	home := os.Getenv("HOME")                 // want `call to os.Getenv`
	_, set := os.LookupEnv("SEED")            // want `call to os.LookupEnv`
	return home, set && len(os.Environ()) > 0 // want `call to os.Environ`
}

// Duration arithmetic and formatting use the time package without reading
// the wall clock; only Now/Since/Until are ambient.
func allowedDuration(d time.Duration) string {
	return (2 * d).String()
}

// Non-entropy os calls stay allowed.
func allowedOS(name string) error {
	return os.Remove(name)
}

func suppressed() int64 {
	return time.Now().UnixNano() //simlint:ignore rngpurity -- wall clock feeds the journal header, never the simulation
}

// Package core seeds the ctxflow golden tests: the analyzer applies to
// packages named core/extractor/cluster, so this stand-in exercises
// every rule without touching the real tree.
package core

import (
	"context"
	"os"
)

// RunContext forwards its context (good).
func RunContext(ctx context.Context, x int) error {
	return ctx.Err()
}

// Run is a context-less convenience shim: even a single return
// delegating a fresh context to the *Context variant is banned.
func Run(x int) error { return RunContext(context.Background(), x) } // want "below the public API boundary"

// SpawnContext spawns goroutines under its caller's context (good).
func SpawnContext(ctx context.Context) {
	go func() { <-ctx.Done() }()
}

// goodSpawn is unexported; the spawn rule applies to the public API
// boundary only (good).
func goodSpawn() { go func() {}() }

// BadSpawn spawns goroutines without accepting a context.
func BadSpawn() { // want "spawns goroutines but has no context.Context parameter"
	go goodSpawn()
}

// BadIO performs blocking I/O without accepting a context.
func BadIO(path string) ([]byte, error) { // want "performs blocking I/O"
	return os.ReadFile(path)
}

// BadBackground manufactures a fresh context below the API boundary.
func BadBackground(x int) error {
	ctx := context.Background() // want "below the public API boundary"
	return RunContext(ctx, x)
}

// BadUnforwarded accepts a context and silently drops it, breaking
// cancellation for everything downstream.
func BadUnforwarded(ctx context.Context, x int) error { // want "never forwarded"
	return RunContext(context.TODO(), x) // want "context.TODO() below the public API boundary"
}

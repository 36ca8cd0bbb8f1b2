package safemon

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Factory constructs an unfitted detector from a resolved Config.
type Factory func(cfg Config) Detector

var registry = struct {
	sync.RWMutex
	m map[string]Factory
}{m: map[string]Factory{}}

// Register makes a backend available to Open under name. It panics on a
// duplicate or empty name, mirroring database/sql's driver registry.
func Register(name string, f Factory) {
	registry.Lock()
	defer registry.Unlock()
	if name == "" || f == nil {
		panic("safemon: Register with empty name or nil factory")
	}
	if _, dup := registry.m[name]; dup {
		panic("safemon: Register called twice for backend " + name)
	}
	registry.m[name] = f
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]string, 0, len(registry.m))
	for name := range registry.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Open constructs an unfitted detector by registry name, e.g.
// Open("context-aware", WithThreshold(0.6)).
func Open(name string, opts ...Option) (Detector, error) {
	registry.RLock()
	f := registry.m[name]
	registry.RUnlock()
	if f == nil {
		return nil, fmt.Errorf("safemon: unknown backend %q (have %s)", name, strings.Join(Backends(), ", "))
	}
	return f(newConfig(opts)), nil
}

func init() {
	Register("context-aware", func(cfg Config) Detector { return newContextDetector(cfg) })
	Register("lookahead", func(cfg Config) Detector {
		cfg.Lookahead = true
		return newContextDetector(cfg)
	})
	Register("monolithic", func(cfg Config) Detector {
		cfg.Lookahead = false
		return newDetector("monolithic", cfg, fitContext, decodeContext)
	})
	Register("envelope", func(cfg Config) Detector { return newDetector("envelope", cfg, fitEnvelope, decodeEnvelope) })
	Register("skipchain", func(cfg Config) Detector { return newDetector("skipchain", cfg, fitClassifier, decodeClassifier) })
	Register("sdsdl", func(cfg Config) Detector { return newDetector("sdsdl", cfg, fitClassifier, decodeClassifier) })
	Register("cascade", func(cfg Config) Detector { return newDetector("cascade", cfg, fitCascade, decodeCascade) })
}

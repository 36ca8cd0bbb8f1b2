package serve

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/safemon/guard"
)

// mitigationCounters aggregates guard activity across every stream the
// service has carried. Stream handlers write live; /metrics reads
// concurrently. Alerts counts confirmed unsafe episodes; warns, pauses,
// safeStops and retracts count upward transitions; releases counts
// hysteresis releases.
type mitigationCounters struct {
	guardedStreams atomic.Uint64
	alerts         atomic.Uint64
	warns          atomic.Uint64
	pauses         atomic.Uint64
	safeStops      atomic.Uint64
	retracts       atomic.Uint64
	releases       atomic.Uint64
}

// buildPolicies validates and indexes the configured guard policies by
// name. Every policy must validate under the same rules safemond's
// -policies flag enforces at startup.
func buildPolicies(policies []guard.Policy) (map[string]guard.Policy, []string, error) {
	byName := make(map[string]guard.Policy, len(policies))
	names := make([]string, 0, len(policies))
	for i, p := range policies {
		if p.Name == "" {
			return nil, nil, fmt.Errorf("serve: policy %d has no name", i)
		}
		if _, dup := byName[p.Name]; dup {
			return nil, nil, fmt.Errorf("serve: duplicate policy name %q", p.Name)
		}
		if _, err := guard.NewEngine(p); err != nil {
			return nil, nil, fmt.Errorf("serve: policy %q: %w", p.Name, err)
		}
		byName[p.Name] = p
		names = append(names, p.Name)
	}
	sort.Strings(names)
	return byName, names, nil
}

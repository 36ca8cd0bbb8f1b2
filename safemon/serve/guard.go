package serve

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/safemon/guard"
)

// mitigationCounters aggregates guard activity across every stream the
// service has carried. Stream handlers write live; /stats readers snapshot
// concurrently.
type mitigationCounters struct {
	guardedStreams atomic.Uint64
	alerts         atomic.Uint64
	warns          atomic.Uint64
	pauses         atomic.Uint64
	safeStops      atomic.Uint64
	retracts       atomic.Uint64
	releases       atomic.Uint64
}

// MitigationSnapshot is the mitigation section of the /stats payload.
type MitigationSnapshot struct {
	// Policies lists the policy names streams can request.
	Policies []string `json:"policies"`
	// GuardedStreams counts streams opened with ?policy=.
	GuardedStreams uint64 `json:"guarded_streams"`
	// Alerts counts confirmed unsafe episodes across guarded streams.
	Alerts uint64 `json:"alerts"`
	// Warns/Pauses/SafeStops/Retracts count upward mitigation
	// transitions; Releases counts hysteresis releases.
	Warns     uint64 `json:"warns"`
	Pauses    uint64 `json:"pauses"`
	SafeStops uint64 `json:"safe_stops"`
	Retracts  uint64 `json:"retracts"`
	Releases  uint64 `json:"releases"`
}

// snapshot renders the counters.
func (m *mitigationCounters) snapshot(policies []string) MitigationSnapshot {
	return MitigationSnapshot{
		Policies:       policies,
		GuardedStreams: m.guardedStreams.Load(),
		Alerts:         m.alerts.Load(),
		Warns:          m.warns.Load(),
		Pauses:         m.pauses.Load(),
		SafeStops:      m.safeStops.Load(),
		Retracts:       m.retracts.Load(),
		Releases:       m.releases.Load(),
	}
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

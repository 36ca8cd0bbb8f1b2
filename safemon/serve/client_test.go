package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestClientRequestErrors pins the client's error contract: every
// request method returns a non-200 answer as *ErrorMsg carrying the
// status code and body, never as a JSON decode error or an untyped one.
func TestClientRequestErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	client := &Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
	ctx := context.Background()
	calls := []struct {
		name string
		call func() error
	}{
		{"Backends", func() error { _, err := client.Backends(ctx); return err }},
		{"Models", func() error { _, err := client.Models(ctx); return err }},
		{"Reload", func() error { _, err := client.Reload(ctx); return err }},
		{"Policies", func() error { _, err := client.Policies(ctx); return err }},
		{"Incidents", func() error { _, err := client.Incidents(ctx, 3); return err }},
		{"Incident", func() error { _, err := client.Incident(ctx, "inc-1"); return err }},
		{"ResolveIncident", func() error { return client.ResolveIncident(ctx, "inc-1") }},
		{"ReplayIncident", func() error { _, err := client.ReplayIncident(ctx, "inc-1", "envelope", "stop-fast"); return err }},
	}
	for _, c := range calls {
		var em *ErrorMsg
		if err := c.call(); !errors.As(err, &em) || em.Code != http.StatusServiceUnavailable || em.Message != "draining" {
			t.Errorf("%s: err = %v, want *ErrorMsg{503, draining}", c.name, err)
		}
	}
}

package simd

import (
	"testing"

	"resizecache/internal/simd/client"
)

// TestAddressGrammar pins the one simd address grammar: the client
// dials and Listen binds through client.ParseAddr, so this table is the
// contract that one address string names the same endpoint on both
// ends.
func TestAddressGrammar(t *testing.T) {
	cases := []struct {
		addr    string
		network string
		target  string
	}{
		{"unix:/run/simd.sock", "unix", "/run/simd.sock"},
		{"tcp:127.0.0.1:9821", "tcp", "127.0.0.1:9821"},
		{"tcp:localhost:80", "tcp", "localhost:80"},
		{"/tmp/simd.sock", "unix", "/tmp/simd.sock"},
		{"./relative.sock", "unix", "./relative.sock"},
		{`C:\pipe\simd`, "unix", `C:\pipe\simd`},
		{"127.0.0.1:9821", "tcp", "127.0.0.1:9821"},
		{"localhost:9821", "tcp", "localhost:9821"},
	}
	for _, tc := range cases {
		network, target := client.ParseAddr(tc.addr)
		if network != tc.network || target != tc.target {
			t.Errorf("ParseAddr(%q) = %s, %s; want %s, %s",
				tc.addr, network, target, tc.network, tc.target)
		}
	}
}

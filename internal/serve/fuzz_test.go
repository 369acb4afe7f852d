package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"repro/internal/machine"
)

// maxAdmitBytes bounds what admitting one /v1/run body may allocate, from
// the body up to a constructed System. The largest admissible System (the
// 16384-processor cap on a 64-node federation) allocates about 17 MB.
const maxAdmitBytes = 64 << 20

// admit runs one /v1/run body through the admission path handleRun and
// execute take before any program runs: decode, validate, options,
// PoolKey and System construction. ipc requests stop at the pool key: a
// worker fleet per input would fork processes on every fuzz iteration.
func admit(s *Server, body []byte) error {
	r := io.NopCloser(bytes.NewReader(body))
	req, err := decodeRun(http.MaxBytesReader(httptest.NewRecorder(), r, maxRunBody))
	if err != nil {
		return err
	}
	if err := s.validate(&req); err != nil {
		return err
	}
	req.poolKey()
	if strings.TrimPrefix(req.Transport, machine.ChaosPrefix) == "ipc" {
		return nil
	}
	sys, err := req.newSystem()
	if err != nil {
		return err
	}
	return sys.Close()
}

// FuzzRunRequest feeds arbitrary /v1/run bodies through admission: no
// input may panic, every rejection must be a 4xx, and no input may
// allocate more than maxAdmitBytes on its way to a System. The committed
// corpus in testdata/fuzz/FuzzRunRequest replays on every go test.
func FuzzRunRequest(f *testing.F) {
	f.Add([]byte(`{"program":"jacobi","args":[8,1],"grid":[8,8]}`))
	f.Add([]byte(`{"program":"madi","args":[16,1,1,0,2],"grid":[4,4],"executor":"calendar"}`))
	f.Add([]byte(`{"program":"jacobi","args":[8,1],"grid":[4,4],"transport":"federated","nodes":2,"link_latency":2,"link_byte":2,"links":[{"src":0,"dst":1,"latency":3,"byte":3}]}`))
	f.Add([]byte(`{"program":"jacobi","args":[8,1],"grid":[8,8],"transport":"ipc","nodes":4}`))
	f.Add([]byte(`{"program":"jacobi","args":[8,1],"grid":[128,128],"transport":"federated","nodes":64}`))
	f.Add([]byte(`{"program":"adi","args":[1e400],"grid":[0]}`))
	s := New(Config{})
	defer s.Pool().Close()
	f.Fuzz(func(t *testing.T, body []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := admit(s, body)
		runtime.ReadMemStats(&after)
		if err != nil {
			if status, _ := errorEnvelope(err); status < 400 || status > 499 {
				t.Fatalf("rejection answered %d, want 4xx: %v", status, err)
			}
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > maxAdmitBytes {
			t.Fatalf("admission allocated %d bytes, over the %d bound", n, maxAdmitBytes)
		}
	})
}

package machine

import (
	"sync/atomic"
	"testing"
)

// barrierHost is a one-node stand-in for the coordinator side of a
// WorkerTransport: it releases every announced barrier generation from its
// own goroutine, as the coordinator does once every node has announced.
type barrierHost struct {
	arrived chan uint64
}

func (h *barrierHost) sendRemote(uint64, int, int, int, Tag, []float64, float64) {
	panic("barrierHost: unexpected inter-node send")
}
func (h *barrierHost) sendStallHint(uint64)                {}
func (h *barrierHost) sendBarrierArrive(_, barrier uint64) { h.arrived <- barrier }

func TestWorkerTransportBarrierWaitsForRelease(t *testing.T) {
	// The worker's half of a machine-wide host barrier: the last local
	// arrival announces the generation, and no local rank passes it until
	// the coordinator releases it — generations in order, under both the
	// goroutine engine and the parking calendar engine.
	const rounds = 20
	for _, ex := range []string{"goroutine", "calendar"} {
		t.Run(ex, func(t *testing.T) {
			host := &barrierHost{arrived: make(chan uint64, rounds)}
			wt, err := newWorkerTransport(host, 1, 8, 2, 1) // window [4, 8)
			if err != nil {
				t.Fatal(err)
			}
			m := NewWithTransport(wt, ZeroComm())
			e, err := NewExecutorByName(ex)
			if err != nil {
				t.Fatal(err)
			}
			m.SetExecutor(e)
			var released atomic.Uint64
			done := make(chan struct{})
			go func() {
				defer close(done)
				for want := uint64(1); want <= rounds; want++ {
					g := <-host.arrived
					if g != want {
						t.Errorf("announced generation %d, want %d", g, want)
					}
					released.Store(g)
					wt.releaseBarrier(g)
				}
			}()
			err = m.Run(func(p *Proc) error {
				for g := uint64(1); g <= rounds; g++ {
					if !wt.Barrier(p.Rank()) {
						t.Errorf("rank %d: barrier %d reported down", p.Rank(), g)
						return nil
					}
					if r := released.Load(); r < g {
						t.Errorf("rank %d passed barrier %d with only %d released", p.Rank(), g, r)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			<-done
		})
	}
}

// Customthrottle: plug a user-defined congestion controller into the
// simulator through the public Controller contract, built by a Factory
// as every registered scheme is. The example implements a simple
// probabilistic global throttler — injection probability decays as the
// globally gathered full-buffer count rises — and compares it against
// the paper's self-tuned scheme past saturation.
//
//	go run ./examples/customthrottle
package main

import (
	"fmt"
	"log"
	"math/rand"

	stcc "repro"
)

// probabilistic throttles injection with probability proportional to the
// square of the network's estimated congestion. It receives global
// snapshots through the side-band subscription its factory makes and
// demonstrates that the simulator's control plane is open to schemes
// the paper never evaluated.
type probabilistic struct {
	// knee is the full-buffer count at which injection probability
	// reaches 50%.
	knee float64
	last float64
	rng  *rand.Rand
}

// newProbabilistic is the scheme's Factory. The simulator calls it once
// per run, so every run starts from the same fresh state.
func newProbabilistic(env stcc.Env) (stcc.Controller, error) {
	p := &probabilistic{knee: 400, rng: rand.New(rand.NewSource(7))}
	env.Side.Subscribe(p)
	return p, nil
}

// OnSnapshot receives the side-band's global aggregates.
func (p *probabilistic) OnSnapshot(s stcc.Snapshot) { p.last = float64(s.FullBuffers) }

// AllowInjection implements stcc.Controller.
func (p *probabilistic) AllowInjection(_ int64, _, _ stcc.NodeID) bool {
	x := p.last / p.knee
	accept := 1 / (1 + x*x)
	return p.rng.Float64() < accept
}

// Tick implements stcc.Controller.
func (p *probabilistic) Tick(int64) {}

// Observe implements stcc.Controller.
func (p *probabilistic) Observe(stcc.FeedbackEvent) {}

func main() {
	schemes := []struct {
		name   string
		scheme stcc.Scheme
	}{
		{"base", stcc.Scheme{Kind: stcc.Base}},
		{"probabilistic", stcc.Scheme{Kind: stcc.CustomScheme, Custom: newProbabilistic}},
		{"tune", stcc.Scheme{Kind: stcc.SelfTuned}},
	}
	fmt.Println("16-ary 2-cube past saturation (0.04 packets/node/cycle):")
	for _, s := range schemes {
		cfg := stcc.NewConfig()
		cfg.Rate = 0.04
		cfg.WarmupCycles = 8_000
		cfg.MeasureCycles = 32_000
		cfg.Scheme = s.scheme
		res, err := stcc.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-14s accepted %.4f flits/node/cycle, latency %5.0f, recoveries %d\n",
			s.name, res.AcceptedFlits, res.AvgNetworkLatency, res.Recoveries)
	}
}

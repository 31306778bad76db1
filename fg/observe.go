package fg

import "sync"

// An Observe bundles the observability hooks a program hands to code that
// builds networks on its behalf — the sorting programs' configs and the
// experiment harness each carry one. The zero value (and a nil pointer)
// observes nothing and costs nothing; set only the pieces wanted. One
// Observe is typically shared by every network of a run, so the passes
// land on one trace timeline. Serving what it observes is the caller's
// business: this package neither persists nor serves anything.
type Observe struct {
	// Tracer, if set, is attached to each network before Run — the bundle's
	// one event sink, whether sized for a whole run's timeline or to
	// BlackBoxEvents as a black box.
	Tracer *Tracer
	// Metrics, if set, is called with each network before Run — a metrics
	// registry's RegisterNetwork, so a scrape mid-run sees the network's
	// live counters.
	Metrics func(*Network)
	// Watchdog, if set, starts a progress watchdog on each network for the
	// duration of its Run (see Network.Watch). The config is shared;
	// OnStall may be called by several networks' watchdogs concurrently.
	Watchdog *WatchdogConfig
	// OnStats, if set, receives each network's final snapshot right after
	// its Run returns. Programs that run several networks concurrently (one
	// per simulated cluster node) call it concurrently; the callback must
	// be safe for that.
	OnStats func(NetworkStats)
}

// Attach wires the bundle into nw: the tracer is attached, the Metrics hook
// called and the watchdog started, all before Run. The returned finish
// function is to be called (typically deferred) once Run has returned; it
// stops the watchdog and delivers the final snapshot to OnStats — exactly
// once, even if called again (a runner that both defers it and calls it on
// an error path, or a Run that returns a *PanicError, must not
// double-report). Attach on a nil Observe is a no-op, and the finish
// function is never nil:
//
//	finish := cfg.Observe.Attach(nw)
//	defer finish()
//	err := nw.Run()
func (o *Observe) Attach(nw *Network) func() {
	if o == nil {
		return func() {}
	}
	if o.Tracer != nil {
		nw.SetTracer(o.Tracer)
	}
	if o.Metrics != nil {
		o.Metrics(nw)
	}
	var dog *Watchdog
	if o.Watchdog != nil {
		dog = nw.Watch(*o.Watchdog)
	}
	fn := o.OnStats
	var once sync.Once
	return func() {
		once.Do(func() {
			if dog != nil {
				dog.Stop()
			}
			if fn != nil {
				fn(nw.Stats())
			}
		})
	}
}

package main

import (
	"fmt"

	"slaplace/internal/cluster"
	"slaplace/internal/core"
	"slaplace/internal/queueing"
	"slaplace/internal/res"
	"slaplace/internal/workload/batch"
	"slaplace/internal/workload/trans"
)

// Tenant snapshot shapes. Both builders follow the repo's synthetic
// planning-benchmark states (syntheticState and steadySyntheticState
// in bench_test.go) field for field, so a shape measured here lines up
// with the same shape in cmd/benchgate. The only difference is the web
// application's ID: it carries the tenant's cluster ID, which lets the
// controller timing wrapper attribute a Plan call to the request that
// caused it without reaching into the daemon.

// shape is one tenant cluster size.
type shape struct {
	nodes, jobs int
	crowded     bool // steadySyntheticState when set, syntheticState otherwise
}

func (s shape) String() string { return fmt.Sprintf("%dx%d", s.nodes, s.jobs) }

// webModel is the service-time model every synthetic web app uses.
func webModel() queueing.MG1PS {
	m, err := queueing.NewMG1PS(1350, 4500)
	if err != nil {
		panic(err) // constant arguments: only a bug gets here
	}
	return m
}

// build returns the shape's snapshot with the web app named app.
func (s shape) build(app string) *core.State {
	if s.crowded {
		return crowdedState(app, s.nodes, s.jobs)
	}
	return halfLoadedState(app, s.nodes, s.jobs)
}

// halfLoadedState is syntheticState: half the jobs running (up to two
// per node), half queued, room to place more — a full-tier plan with
// short victim walks.
func halfLoadedState(app string, nodes, jobs int) *core.State {
	st := &core.State{Now: 50000}
	for i := 0; i < nodes; i++ {
		st.Nodes = append(st.Nodes, core.NodeInfo{
			ID:  cluster.NodeID(fmt.Sprintf("n%03d", i)),
			CPU: 18000,
			Mem: 16000,
		})
	}
	running := 0
	for i := 0; i < jobs; i++ {
		info := core.JobInfo{
			ID:        batch.JobID(fmt.Sprintf("j%04d", i)),
			State:     batch.Pending,
			Remaining: res.Work(4500 * float64(5000+i%20000)),
			MaxSpeed:  4500,
			Mem:       5000,
			Goal:      60000 + float64(i%40000),
			Submitted: float64(i),
		}
		if running < nodes*2 && i%2 == 0 {
			info.State = batch.Running
			info.Node = st.Nodes[running%nodes].ID
			info.Share = 4500
			running++
		}
		st.Jobs = append(st.Jobs, info)
	}
	st.Apps = []core.AppInfo{{
		ID: trans.AppID(app), Lambda: 65, RTGoal: 3.0, Model: webModel(),
		InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: nodes,
		Instances: map[cluster.NodeID]res.CPU{},
	}}
	return st
}

// crowdedState is steadySyntheticState: every node hosts a web
// instance and two running jobs, and the 12 GB pending backlog fits
// neither the free memory nor what one eviction frees. Demand drift
// keeps it on the carry-over tier; losing nodes sends it to the full
// tier's victim walk, which is quadratic in the backlog.
func crowdedState(app string, nodes, jobs int) *core.State {
	st := &core.State{Now: 50000}
	instances := map[cluster.NodeID]res.CPU{}
	for i := 0; i < nodes; i++ {
		id := cluster.NodeID(fmt.Sprintf("n%04d", i))
		st.Nodes = append(st.Nodes, core.NodeInfo{ID: id, CPU: 18000, Mem: 16000})
		instances[id] = 150
	}
	running := 2 * nodes
	if running > jobs {
		running = jobs
	}
	for i := 0; i < jobs; i++ {
		info := core.JobInfo{
			ID:        batch.JobID(fmt.Sprintf("j%05d", i)),
			State:     batch.Pending,
			Remaining: res.Work(4500 * float64(5000+i%20000)),
			MaxSpeed:  4500,
			Mem:       12000,
			Goal:      60000 + float64(i%40000),
			Submitted: float64(i),
		}
		if i < running {
			info.State = batch.Running
			info.Node = st.Nodes[i%nodes].ID
			info.Share = 4500
			info.Mem = 5000
			info.Goal = 120000 + float64(i)
		}
		st.Jobs = append(st.Jobs, info)
	}
	st.Apps = []core.AppInfo{{
		ID: trans.AppID(app), Lambda: 65, RTGoal: 3.0, Model: webModel(),
		InstanceMem: 1000, MaxPerInstance: 18000, MinInstances: nodes,
		Instances: instances,
	}}
	return st
}

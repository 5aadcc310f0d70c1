package simweb

import (
	"fmt"

	"mdq/internal/abind"
	"mdq/internal/cq"
	"mdq/internal/plan"
	"mdq/internal/schema"
	"mdq/internal/service"
)

// World builds the simulated world the commands' -world flag names
// (travel, bio, mashup or zipf) and returns its registry with the
// world's example query text. Only the travel world takes options.
func World(name string, travel TravelOptions) (*service.Registry, string, error) {
	switch name {
	case "travel":
		return NewTravelWorld(travel).Registry, RunningExampleText, nil
	case "bio":
		return NewBioWorld().Registry, BioExampleText, nil
	case "mashup":
		return NewMashupWorld().Registry, MashupExampleText, nil
	case "zipf":
		return NewZipfWorld(0, 0, 0).Registry, ZipfExampleText, nil
	default:
		return nil, "", fmt.Errorf("unknown world %q (want travel, bio, mashup or zipf)", name)
	}
}

// RunningExampleText is the query of Figure 3: database conferences
// in the next six months, in locations at 28 °C or more, reachable
// with a flight and offering a luxury hotel so that flight plus
// hotel stay under 2000.
//
// Selectivity annotations carry the profile knowledge of §3.4/Table
// 1: the date window is folded into conf's profiled erspi (σ=1), the
// temperature filter is weather's profiled 0.05, and the price
// predicate spanning flight and hotel is the join selectivity 0.01
// used in Example 5.1.
const RunningExampleText = `
q(Conf, City, HPrice, FPrice, Start, StartTime, End, EndTime, Hotel) :-
    flight('Milano', City, Start, End, StartTime, EndTime, FPrice),
    hotel(Hotel, City, 'luxury', Start, End, HPrice),
    conf('DB', Conf, Start, End, City),
    weather(City, Temperature, Start),
    Start >= '2007/03/14' {1},
    End <= '2007/03/14' + 180 {1},
    Temperature >= 28 {0.05},
    FPrice + HPrice < 2000 {0.01}.`

// Atom indexes in the running-example query body (Figure 3 order).
const (
	AtomFlight  = 0
	AtomHotel   = 1
	AtomConf    = 2
	AtomWeather = 3
)

// RunningExampleQuery parses the running example and resolves it
// against the travel schema.
func RunningExampleQuery(sch *schema.Schema) (*cq.Query, error) {
	q, err := cq.Parse(RunningExampleText)
	if err != nil {
		return nil, err
	}
	if err := q.Resolve(sch); err != nil {
		return nil, err
	}
	return q, nil
}

// AssignmentAlpha1 is α1 of Example 4.1: conf by topic (pattern 1),
// flight, hotel with city and dates bound (pattern 1), weather by
// city and date.
func AssignmentAlpha1() abind.Assignment {
	return abind.Assignment{
		AtomFlight:  schema.MustPattern("iiiiooo"),
		AtomHotel:   schema.MustPattern("oiiiio"),
		AtomConf:    schema.MustPattern("ioooo"),
		AtomWeather: schema.MustPattern("ioi"),
	}
}

// PlanSTopology is plan S of §6 (Figure 7a): the serial plan
// conf → weather → flight → hotel suggested by the selective
// heuristics.
func PlanSTopology() *plan.Topology {
	return plan.Chain([]int{AtomConf, AtomWeather, AtomFlight, AtomHotel})
}

// PlanPTopology is plan P of §6 (Figure 7c): weather, flight and
// hotel in parallel right after conf, as suggested by the parallel
// heuristics.
func PlanPTopology() *plan.Topology {
	return plan.Layers([][]int{{AtomConf}, {AtomWeather, AtomFlight, AtomHotel}})
}

// PlanOTopology is the optimal plan O of §6 (Figures 7d and 8):
// conf → weather, then flight and hotel in parallel combined by a
// merge-scan join.
func PlanOTopology() *plan.Topology {
	return plan.Layers([][]int{{AtomConf}, {AtomWeather}, {AtomFlight, AtomHotel}})
}

// BuildPlan constructs and validates one of the named plans against
// the travel world, with the registry's join-method knowledge and
// the given fetch factors for flight and hotel (0 keeps 1).
func (w *TravelWorld) BuildPlan(q *cq.Query, topo *plan.Topology, fFlight, fHotel int) (*plan.Plan, error) {
	p, err := plan.Build(q, AssignmentAlpha1(), topo, plan.Options{ChooseMethod: w.Registry.MethodChooser()})
	if err != nil {
		return nil, err
	}
	if fFlight > 0 {
		p.ServiceNode[AtomFlight].Fetches = fFlight
	}
	if fHotel > 0 {
		p.ServiceNode[AtomHotel].Fetches = fHotel
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

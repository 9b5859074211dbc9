package core

import (
	"fmt"

	"seco/internal/mart"
	"seco/internal/query"
	"seco/internal/synth"
	"seco/internal/types"
)

// Scenario builds a built-in world by name — movienight, conftravel or
// triangle — returning its system, canonical INPUT bindings and canonical
// query text.
func Scenario(name string, seed int64) (*System, map[string]types.Value, string, error) {
	switch name {
	case "movienight":
		sys, inputs, err := MovieNight(seed)
		return sys, inputs, query.RunningExampleText, err
	case "conftravel":
		sys, inputs, err := ConfTravel(seed)
		return sys, inputs, query.TravelExampleText, err
	case "triangle":
		sys, inputs, err := Triangle(seed)
		return sys, inputs, query.TriangleExampleText, err
	default:
		return nil, nil, "", fmt.Errorf("unknown scenario %q (want movienight, conftravel or triangle)", name)
	}
}

// MovieNight builds a ready-to-query system for the running example: the
// Movie/Theatre/Restaurant scenario registry with a synthetic world bound
// to each interface. It returns the system and the canonical INPUT
// bindings (a user in Milano looking for a recent comedy and a pizzeria).
func MovieNight(seed int64) (*System, map[string]types.Value, error) {
	reg, err := mart.MovieScenario()
	if err != nil {
		return nil, nil, err
	}
	world, err := synth.NewMovieWorld(reg, synth.MovieConfig{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	sys := NewSystemWith(reg)
	if err := sys.Bind(world.Movies); err != nil {
		return nil, nil, err
	}
	if err := sys.Bind(world.Theatres); err != nil {
		return nil, nil, err
	}
	if err := sys.Bind(world.Restaurants); err != nil {
		return nil, nil, err
	}
	return sys, world.Inputs, nil
}

// Triangle builds a ready-to-query system for the cyclic Festival/
// Artist/Venue/Promoter scenario that exercises the n-ary ranked join,
// returning the system and the canonical INPUT bindings (the festival
// name).
func Triangle(seed int64) (*System, map[string]types.Value, error) {
	return triangleSystem(synth.TriangleConfig{Seed: seed})
}

// TriangleZipf builds the triangle system over a zipf-skewed world: the
// edge-attribute keys concentrate on a few hot values while the
// registered service statistics stay those of the uniform world. The
// optimizer therefore plans with edge selectivity 1/Keys although the
// skewed data matches far more often — the canonical scenario for
// fidelity drift detection (a controlled stats-vs-data lie, after the
// skewed workloads of the cardinality-estimation benchmarks).
func TriangleZipf(seed int64) (*System, map[string]types.Value, error) {
	return triangleSystem(synth.TriangleConfig{Seed: seed, Skew: 2})
}

// triangleSystem shares the registry/bind boilerplate between the
// uniform and skewed triangle constructors.
func triangleSystem(cfg synth.TriangleConfig) (*System, map[string]types.Value, error) {
	reg, err := mart.TriangleScenario()
	if err != nil {
		return nil, nil, err
	}
	world, err := synth.NewTriangleWorld(reg, cfg)
	if err != nil {
		return nil, nil, err
	}
	sys := NewSystemWith(reg)
	if err := sys.Bind(world.Festivals); err != nil {
		return nil, nil, err
	}
	if err := sys.Bind(world.Artists); err != nil {
		return nil, nil, err
	}
	if err := sys.Bind(world.Venues); err != nil {
		return nil, nil, err
	}
	if err := sys.Bind(world.Promoters); err != nil {
		return nil, nil, err
	}
	return sys, world.Inputs, nil
}

// ConfTravel builds a ready-to-query system for the Conference/Weather/
// Flight/Hotel scenario of Figs. 2–3, returning the system and the
// canonical INPUT bindings.
func ConfTravel(seed int64) (*System, map[string]types.Value, error) {
	reg, err := mart.TravelScenario()
	if err != nil {
		return nil, nil, err
	}
	world, err := synth.NewTravelWorld(reg, synth.TravelConfig{Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	sys := NewSystemWith(reg)
	if err := sys.Bind(world.Conferences); err != nil {
		return nil, nil, err
	}
	if err := sys.Bind(world.Weather); err != nil {
		return nil, nil, err
	}
	if err := sys.Bind(world.Flights); err != nil {
		return nil, nil, err
	}
	if err := sys.Bind(world.Hotels); err != nil {
		return nil, nil, err
	}
	return sys, world.Inputs, nil
}

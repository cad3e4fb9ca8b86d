package namerec

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"decompstudy/internal/csrc"
	"decompstudy/internal/fault"
	"decompstudy/internal/obs"
)

// ErrEmptyModel is returned when training sees no variables.
var ErrEmptyModel = errors.New("namerec: training corpus contains no variables")

// ErrTrain is returned when recovery-model training fails.
var ErrTrain = errors.New("namerec: training failed")

// Prediction is one recovered (name, type) suggestion.
type Prediction struct {
	Name string
	Type string
	// Confidence is the feature-overlap score in [0, 1] of the retrieved
	// training example.
	Confidence float64
}

// example is one training variable.
type example struct {
	name     string
	typeSpec string
	features map[string]bool
}

// Model is a trained nearest-neighbor name/type recovery model.
type Model struct {
	examples []example
}

// TrainModel builds a recovery model from parsed source files with their
// original names intact.
func TrainModel(files []*csrc.File) (*Model, error) {
	return TrainModelCtx(context.Background(), files)
}

// TrainModelCtx is TrainModel with telemetry: a namerec.TrainModel span plus
// training-size counters when the context carries an obs handle.
func TrainModelCtx(ctx context.Context, files []*csrc.File) (*Model, error) {
	_, sp := obs.StartSpan(ctx, "namerec.TrainModel", obs.KV("files", len(files)))
	defer sp.End()
	if err := fault.Check(ctx, fault.NamerecTrain); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrTrain, err)
	}
	m := &Model{}
	for _, f := range files {
		for _, fn := range f.Functions {
			feats := ExtractFeatures(fn)
			types := variableTypes(fn)
			// Predict keeps the first best-scoring example, so examples are
			// added in sorted name order: training is deterministic, and two
			// trainings on the same corpus build the same model.
			names := make([]string, 0, len(feats))
			for name := range feats {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if isFunctionName(name, f) {
					continue
				}
				fs := feats[name]
				set := make(map[string]bool, len(fs))
				for _, feat := range fs {
					set[feat] = true
				}
				ts := "__int64"
				if t, ok := types[name]; ok {
					ts = t.String()
				}
				m.examples = append(m.examples, example{name: name, typeSpec: ts, features: set})
			}
		}
	}
	if len(m.examples) == 0 {
		return nil, ErrEmptyModel
	}
	sp.SetAttr("examples", len(m.examples))
	obs.AddCount(ctx, "namerec.train.examples", int64(len(m.examples)))
	return m, nil
}

// NumExamples reports the training-set size.
func (m *Model) NumExamples() int { return len(m.examples) }

// variableTypes collects declared types for params and locals.
func variableTypes(fn *csrc.Function) map[string]*csrc.Type {
	out := map[string]*csrc.Type{}
	for _, p := range fn.Params {
		out[p.Name] = p.Type
	}
	var walk func(s csrc.Stmt)
	walk = func(s csrc.Stmt) {
		switch st := s.(type) {
		case *csrc.Block:
			for _, inner := range st.Stmts {
				walk(inner)
			}
		case *csrc.DeclStmt:
			out[st.Name] = st.Type
		case *csrc.If:
			walk(st.Then)
			if st.Else != nil {
				walk(st.Else)
			}
		case *csrc.While:
			walk(st.Body)
		case *csrc.For:
			if st.Init != nil {
				walk(st.Init)
			}
			walk(st.Body)
		}
	}
	walk(fn.Body)
	return out
}

// isFunctionName filters callee identifiers out of the training set.
func isFunctionName(name string, f *csrc.File) bool {
	for _, fn := range f.Functions {
		if fn.Name == name {
			return true
		}
	}
	return false
}

// Predict retrieves the best-matching training example for a feature bag.
// ok is false when nothing overlaps at all.
func (m *Model) Predict(features []string) (Prediction, bool) {
	query := make(map[string]bool, len(features))
	for _, f := range features {
		query[f] = true
	}
	best := Prediction{}
	found := false
	for _, ex := range m.examples {
		inter := 0
		for f := range query {
			if ex.features[f] {
				inter++
			}
		}
		if inter == 0 {
			continue
		}
		union := len(query) + len(ex.features) - inter
		score := float64(inter) / float64(union)
		if score > best.Confidence {
			best = Prediction{Name: ex.name, Type: ex.typeSpec, Confidence: score}
			found = true
		}
	}
	return best, found
}

// PredictAll ranks the top-k candidate names for a feature bag.
func (m *Model) PredictAll(features []string, k int) []Prediction {
	query := make(map[string]bool, len(features))
	for _, f := range features {
		query[f] = true
	}
	var all []Prediction
	seen := map[string]bool{}
	for _, ex := range m.examples {
		inter := 0
		for f := range query {
			if ex.features[f] {
				inter++
			}
		}
		if inter == 0 {
			continue
		}
		union := len(query) + len(ex.features) - inter
		key := ex.name + "\x00" + ex.typeSpec
		if seen[key] {
			continue
		}
		seen[key] = true
		all = append(all, Prediction{Name: ex.name, Type: ex.typeSpec, Confidence: float64(inter) / float64(union)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Confidence != all[j].Confidence {
			return all[i].Confidence > all[j].Confidence
		}
		return all[i].Name < all[j].Name
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

// String summarizes the model.
func (m *Model) String() string {
	return fmt.Sprintf("namerec.Model{%d training variables}", len(m.examples))
}

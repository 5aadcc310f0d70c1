package cq

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"mdq/internal/schema"
)

// Template is a parametrized conjunctive query (§2.2 of the paper:
// "Constant values appearing in a query are either presented by the
// user through a form or set within a query template; optimization
// is performed for each query template"). Parameters are written
// $name in term positions:
//
//	q(Conf, City) :- conf($topic, Conf, Start, End, City),
//	                 weather(City, T, Start), T >= $minTemp.
//
// A template is optimized once; each Bind produces a concrete query
// sharing the same plan structure, which is what makes template
// optimization worthwhile: the plan depends on patterns, topology
// and fetch factors, not on the parameter values.
type Template struct {
	query  *Query
	params map[string][]paramSlot
}

type paramSlot struct {
	atom int // -1: predicate expression
	pos  int
	// for predicate slots:
	pred *Expr
}

// ParseTemplate parses a query with $param placeholders.
func ParseTemplate(input string) (*Template, error) {
	// Rewrite $name into a recognizable string constant, parse, then
	// record the slots.
	rewritten := rewriteParams(input)
	q, err := Parse(rewritten)
	if err != nil {
		return nil, err
	}
	t := &Template{query: q, params: map[string][]paramSlot{}}
	for ai, a := range q.Atoms {
		for pi, term := range a.Terms {
			if name, ok := paramName(term); ok {
				t.params[name] = append(t.params[name], paramSlot{atom: ai, pos: pi})
			}
		}
	}
	for _, p := range q.Preds {
		for _, e := range []*Expr{p.L, p.R} {
			collectParamExprs(e, t)
		}
	}
	if len(t.params) == 0 {
		return nil, fmt.Errorf("cq: template has no $parameters; use Parse for plain queries")
	}
	return t, nil
}

const paramMarker = "\x02param:"

func rewriteParams(input string) string {
	var b strings.Builder
	runes := []rune(input)
	for i := 0; i < len(runes); i++ {
		c := runes[i]
		if c != '$' {
			b.WriteRune(c)
			continue
		}
		j := i + 1
		for j < len(runes) && (isIdentRune(runes[j])) {
			j++
		}
		name := string(runes[i+1 : j])
		if name == "" {
			b.WriteRune(c)
			continue
		}
		fmt.Fprintf(&b, "'%s%s'", paramMarker, name)
		i = j - 1
	}
	return b.String()
}

func isIdentRune(r rune) bool {
	return r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
}

func paramName(t Term) (string, bool) {
	if t.IsVar() || t.Const.Kind != schema.StringValue {
		return "", false
	}
	if strings.HasPrefix(t.Const.Str, paramMarker) {
		return strings.TrimPrefix(t.Const.Str, paramMarker), true
	}
	return "", false
}

func collectParamExprs(e *Expr, t *Template) {
	if e == nil {
		return
	}
	if e.Kind == ETerm {
		if name, ok := paramName(e.Term); ok {
			t.params[name] = append(t.params[name], paramSlot{atom: -1, pred: e})
		}
		return
	}
	collectParamExprs(e.L, t)
	collectParamExprs(e.R, t)
}

// Params lists the template's parameter names, sorted.
func (t *Template) Params() []string {
	out := make([]string, 0, len(t.params))
	for name := range t.params {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Query returns the underlying parametrized query; its parameter
// slots hold marker constants, so it must not be executed directly —
// it is however the right input for template-level optimization
// (constants only affect values, never callability or structure).
func (t *Template) Query() *Query { return t.query }

// Bind substitutes every parameter and returns an executable query.
// All parameters must be supplied.
func (t *Template) Bind(values map[string]schema.Value) (*Query, error) {
	for name := range t.params {
		if _, ok := values[name]; !ok {
			return nil, fmt.Errorf("cq: template parameter $%s not bound", name)
		}
	}
	for name := range values {
		if _, ok := t.params[name]; !ok {
			return nil, fmt.Errorf("cq: unknown template parameter $%s", name)
		}
	}
	q := &Query{Name: t.query.Name, Head: t.query.Head}
	// Deep-copy atoms (terms are replaced in place per binding).
	for i, a := range t.query.Atoms {
		terms := make([]Term, len(a.Terms))
		copy(terms, a.Terms)
		q.Atoms = append(q.Atoms, &Atom{Service: a.Service, Terms: terms, Index: i, Sig: a.Sig})
	}
	for _, p := range t.query.Preds {
		q.Preds = append(q.Preds, &Predicate{L: copyExpr(p.L), R: copyExpr(p.R), Op: p.Op, Selectivity: p.Selectivity})
	}
	for name, slots := range t.params {
		v := values[name]
		for _, s := range slots {
			if s.atom >= 0 {
				q.Atoms[s.atom].Terms[s.pos] = C(v)
			}
		}
	}
	// Predicate slots: walk the copied expressions and substitute the
	// markers.
	for _, p := range q.Preds {
		substituteParams(p.L, values)
		substituteParams(p.R, values)
	}
	return q, nil
}

func copyExpr(e *Expr) *Expr {
	if e == nil {
		return nil
	}
	c := *e
	c.L = copyExpr(e.L)
	c.R = copyExpr(e.R)
	return &c
}

func substituteParams(e *Expr, values map[string]schema.Value) {
	if e == nil {
		return
	}
	if e.Kind == ETerm {
		if name, ok := paramName(e.Term); ok {
			e.Term = C(values[name])
		}
		return
	}
	substituteParams(e.L, values)
	substituteParams(e.R, values)
}

// MustBind is Bind that panics on error.
func (t *Template) MustBind(values map[string]schema.Value) *Query {
	q, err := t.Bind(values)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseBindings reads a textual binding list of the form
// "name=value,name2=value2" (the CLI syntax of mdqrun -bind) into
// template binding values, typing each literal with
// ParseBindingValue. Empty segments are skipped.
func ParseBindings(s string) (map[string]schema.Value, error) {
	values := map[string]schema.Value{}
	for _, kv := range strings.Split(s, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		name, raw, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("cq: binding %q is not name=value", kv)
		}
		values[strings.TrimSpace(name)] = ParseBindingValue(strings.TrimSpace(raw))
	}
	return values, nil
}

// ParseBindingValue types a binding literal: yyyy/mm/dd or
// yyyy-mm-dd become dates, anything strconv.ParseFloat accepts
// ("28", "10.50", "1e3") becomes a number, everything else stays a
// string.
func ParseBindingValue(raw string) schema.Value {
	for _, layout := range []string{"2006/01/02", "2006-01-02"} {
		if t, err := time.Parse(layout, raw); err == nil {
			return schema.D(t.Year(), t.Month(), t.Day())
		}
	}
	if f, err := strconv.ParseFloat(raw, 64); err == nil {
		return schema.N(f)
	}
	return schema.S(raw)
}

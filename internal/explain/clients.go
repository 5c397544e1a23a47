package explain

import (
	"fmt"
	"io"
	"strings"

	"tracer/internal/client"
	"tracer/internal/escape"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// ForTypestate narrates a type-state job.
func ForTypestate(job *client.Job[typestate.State], w io.Writer) *Problem[typestate.State] {
	a := job.A.(*typestate.Analysis)
	return New[typestate.State](job, w, Hooks[typestate.State]{
		Initial:     a.Initial(),
		Transfer:    a.Transfer,
		Client:      job.Client,
		Post:        a.NotQ(job.Goal),
		FormatState: a.Format,
		FormatAbstraction: func(p uset.Set) string {
			names := make([]string, 0, p.Len())
			for _, v := range p.Elems() {
				names = append(names, a.Vars.Value(v))
			}
			return "{" + strings.Join(names, ", ") + "}"
		},
		Cubes: job.Cubes,
		DescribeCube: func(c coreCube) string {
			out := "every p"
			for _, v := range c.Pos.Elems() {
				out += fmt.Sprintf(" with %s∈p", a.Vars.Value(v))
			}
			for _, v := range c.Neg.Elems() {
				out += fmt.Sprintf(" with %s∉p", a.Vars.Value(v))
			}
			return out
		},
	})
}

// ForEscape narrates a thread-escape job.
func ForEscape(job *client.Job[escape.State], w io.Writer) *Problem[escape.State] {
	a := job.A.(*escape.Analysis)
	return New[escape.State](job, w, Hooks[escape.State]{
		Initial:     a.Initial(),
		Transfer:    a.Transfer,
		Client:      job.Client,
		Post:        a.NotQ(job.Goal),
		FormatState: a.Format,
		FormatAbstraction: func(p uset.Set) string {
			parts := make([]string, 0, a.Sites.Len())
			for i := 0; i < a.Sites.Len(); i++ {
				o := "E"
				if p.Has(i) {
					o = "L"
				}
				parts = append(parts, a.Sites.Value(i)+"↦"+o)
			}
			return "[" + strings.Join(parts, ", ") + "]"
		},
		Cubes: job.Cubes,
		DescribeCube: func(c coreCube) string {
			out := "every p"
			for _, h := range c.Pos.Elems() {
				out += fmt.Sprintf(" with %s↦L", a.Sites.Value(h))
			}
			for _, h := range c.Neg.Elems() {
				out += fmt.Sprintf(" with %s↦E", a.Sites.Value(h))
			}
			return out
		},
	})
}

package main

import (
	"bytes"
	"fmt"
	"testing"
)

// transcript renders the first n requests of every connection of a
// workload, mutations included, as the bytes the daemon would receive.
func transcript(sp *spec, seed int64, n int) []byte {
	small := *sp
	small.points = min(sp.points, 2*mutationPoints)
	small.relations = min(sp.relations, 4)
	rels := genRelations(&small, seed)
	var b bytes.Buffer
	for i := range rels {
		b.Write(registerBody(&rels[i]))
	}
	write := func(r request) { fmt.Fprintf(&b, "%s %s\n%s\n", r.method, r.path, r.body) }
	if len(small.mix) > 0 {
		for c := 0; c < connections; c++ {
			st := newStream(&small, rels, seed, c)
			for i := 0; i < n; i++ {
				write(st.next())
			}
		}
	}
	if small.writer {
		ms := newMutationStream(rels, seed)
		for i := 0; i < n; i++ {
			write(ms.next())
		}
	}
	for _, r := range firstTouch(rels, seed) {
		write(r)
	}
	return b.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	for i := range specs {
		sp := &specs[i]
		a, b := transcript(sp, 7, 200), transcript(sp, 7, 200)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated two different transcripts", sp.name)
		}
		if c := transcript(sp, 8, 200); bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 generated the same transcript", sp.name)
		}
	}
}

func TestMixShares(t *testing.T) {
	sp := specByName("point_mix")
	rels := genRelations(&spec{relations: 3, points: 200}, 1)
	st := newStream(sp, rels, 1, 0)
	const n = 20000
	var counts [numKinds]int
	for i := 0; i < n; i++ {
		counts[st.next().kind]++
	}
	total := 0
	for _, m := range sp.mix {
		total += m.weight
	}
	for _, m := range sp.mix {
		want := float64(m.weight) / float64(total)
		got := float64(counts[m.kind]) / n
		if got < want*0.7-0.002 || got > want*1.3+0.002 {
			t.Errorf("%s: share %.4f, want about %.4f", m.kind, got, want)
		}
	}
}

// The writer keeps relation sizes steady: after the lead-in every append is
// matched by a delete of an equally large batch on the same relation.
func TestMutationStreamIsSteady(t *testing.T) {
	const n = 4 * mutationPoints
	rels := genRelations(&spec{relations: 4, points: n}, 3)
	models := map[string]*pointModel{}
	for i := range rels {
		models[rels[i].name] = &pointModel{pts: append(rels[i].pts[:0:0], rels[i].pts...)}
	}
	ms := newMutationStream(rels, 3)
	for i := 0; i < 400; i++ {
		r := ms.next()
		models[r.rel].apply(&r)
	}
	for name, m := range models {
		if d := len(m.pts) - n; d < -mutationPoints || d > (deleteLag/4+1)*mutationPoints {
			t.Errorf("%s drifted to %d points", name, len(m.pts))
		}
	}
}

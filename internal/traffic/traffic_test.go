package traffic

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dualtopo/internal/graph"
	"dualtopo/internal/topo"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3)
	if m.Size() != 3 {
		t.Fatalf("Size = %d", m.Size())
	}
	m.Set(0, 1, 5)
	m.Add(0, 1, 2)
	m.Set(2, 0, 3)
	if got := m.At(0, 1); got != 7 {
		t.Fatalf("At(0,1) = %g, want 7", got)
	}
	if got := m.Total(); got != 10 {
		t.Fatalf("Total = %g, want 10", got)
	}
	if got := m.NumPairs(); got != 2 {
		t.Fatalf("NumPairs = %d, want 2", got)
	}
	m.Scale(0.5)
	if got := m.Total(); got != 5 {
		t.Fatalf("Total after scale = %g, want 5", got)
	}
	c := m.Clone()
	c.Set(1, 0, 100)
	if m.At(1, 0) != 0 {
		t.Fatal("Clone is shallow")
	}
}

func TestMatrixPanics(t *testing.T) {
	m := NewMatrix(2)
	for name, fn := range map[string]func(){
		"self-demand":     func() { m.Set(1, 1, 3) },
		"negative demand": func() { m.Set(0, 1, -1) },
		"negative scale":  func() { m.Scale(-1) },
		"NaN demand":      func() { m.Set(0, 1, math.NaN()) },
		"+Inf demand":     func() { m.Set(0, 1, math.Inf(1)) },
		"NaN scale":       func() { m.Scale(math.NaN()) },
		"+Inf scale":      func() { m.Scale(math.Inf(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDemandsAndColumns(t *testing.T) {
	m := NewMatrix(3)
	m.Set(0, 2, 4)
	m.Set(1, 2, 6)
	ds := m.Demands()
	if len(ds) != 2 {
		t.Fatalf("Demands len = %d", len(ds))
	}
	if ds[0] != (Demand{0, 2, 4}) || ds[1] != (Demand{1, 2, 6}) {
		t.Fatalf("Demands = %+v", ds)
	}
	col := m.DemandsTo(2, nil)
	if col[0] != 4 || col[1] != 6 || col[2] != 0 {
		t.Fatalf("DemandsTo(2) = %v", col)
	}
	if c := m.Column(2); &c[0] != &m.cols[2][0] || c[0] != 4 || c[1] != 6 {
		t.Fatalf("Column(2) = %v, want the stored column in place", c)
	}
	if c := m.Column(1); c != nil {
		t.Fatalf("Column(1) = %v, want nil for a column never written", c)
	}
	active := m.ActiveDestinations()
	if len(active) != 1 || active[0] != 2 {
		t.Fatalf("ActiveDestinations = %v", active)
	}
}

func TestGravityShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	n := 30
	m := Gravity(n, rng)
	if m.NumPairs() != n*(n-1) {
		t.Fatalf("gravity pairs = %d, want %d (all off-diagonal)", m.NumPairs(), n*(n-1))
	}
	for s := 0; s < n; s++ {
		if m.At(graph.NodeID(s), graph.NodeID(s)) != 0 {
			t.Fatalf("diagonal (%d,%d) nonzero", s, s)
		}
	}
	// Row sums must equal the sampled origin volumes, which are within
	// [10,200] by Eq. (7).
	for s := 0; s < n; s++ {
		row := 0.0
		for t2 := 0; t2 < n; t2++ {
			row += m.At(graph.NodeID(s), graph.NodeID(t2))
		}
		if row < 10 || row > 200 {
			t.Fatalf("row %d sum %.2f outside [10,200]", s, row)
		}
	}
}

func TestGravityMixLevels(t *testing.T) {
	// Over many nodes the three-level mix of Eq. (7) must appear with
	// roughly the right frequencies.
	rng := rand.New(rand.NewPCG(42, 42))
	n := 2000
	m := Gravity(n, rng)
	low, mid, high := 0, 0, 0
	for s := 0; s < n; s++ {
		row := 0.0
		for t2 := 0; t2 < n; t2++ {
			row += m.At(graph.NodeID(s), graph.NodeID(t2))
		}
		switch {
		case row <= 50:
			low++
		case row >= 80 && row <= 130:
			mid++
		case row >= 150:
			high++
		default:
			t.Fatalf("row %d sum %.2f falls between mix levels", s, row)
		}
	}
	if math.Abs(float64(low)/float64(n)-0.60) > 0.05 {
		t.Errorf("low fraction = %.3f, want ~0.60", float64(low)/float64(n))
	}
	if math.Abs(float64(mid)/float64(n)-0.35) > 0.05 {
		t.Errorf("mid fraction = %.3f, want ~0.35", float64(mid)/float64(n))
	}
	if math.Abs(float64(high)/float64(n)-0.05) > 0.03 {
		t.Errorf("high fraction = %.3f, want ~0.05", float64(high)/float64(n))
	}
}

func TestRandomHighPriorityFractionProperty(t *testing.T) {
	// For any valid k and f, total TH volume must satisfy
	// f = etaH / (etaH + etaL) exactly (up to float error).
	f := func(seed uint64, kRaw, fRaw float64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		k := 0.05 + math.Mod(math.Abs(kRaw), 0.9)
		frac := 0.05 + 0.9*math.Mod(math.Abs(fRaw), 0.9)
		if k > 1 {
			k = 1
		}
		if frac >= 1 {
			frac = 0.5
		}
		tl := Gravity(20, rng)
		th, err := RandomHighPriority(20, k, frac, tl.Total(), rng)
		if err != nil {
			return false
		}
		etaH, etaL := th.Total(), tl.Total()
		got := etaH / (etaH + etaL)
		return math.Abs(got-frac) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomHighPriorityDensity(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	n := 30
	tl := Gravity(n, rng)
	th, err := RandomHighPriority(n, 0.10, 0.30, tl.Total(), rng)
	if err != nil {
		t.Fatal(err)
	}
	want := int(float64(n*(n-1))*0.10 + 0.5)
	if th.NumPairs() != want {
		t.Fatalf("pairs = %d, want %d", th.NumPairs(), want)
	}
}

func TestRandomHighPriorityErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	if _, err := RandomHighPriority(10, 0, 0.3, 100, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := RandomHighPriority(10, 0.1, 1.0, 100, rng); err == nil {
		t.Error("f=1 accepted")
	}
	if _, err := RandomHighPriority(10, 1.5, 0.3, 100, rng); err == nil {
		t.Error("k>1 accepted")
	}
}

func TestSinkModelBidirectional(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	g, err := topo.PowerLaw(30, 81, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	tl := Gravity(30, rng)
	th, err := SinkHighPriority(g, 3, 0.10, 0.20, tl.Total(), UniformClients, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Every demand touches a sink, and traffic is bidirectional.
	sinks := topDegreeNodes(g, 3)
	isSink := map[graph.NodeID]bool{}
	for _, s := range sinks {
		isSink[s] = true
	}
	for _, d := range th.Demands() {
		if !isSink[d.Src] && !isSink[d.Dst] {
			t.Fatalf("demand %+v touches no sink", d)
		}
		if th.At(d.Dst, d.Src) == 0 {
			t.Fatalf("demand %+v has no reverse", d)
		}
	}
	etaH, etaL := th.Total(), tl.Total()
	if got := etaH / (etaH + etaL); math.Abs(got-0.20) > 1e-9 {
		t.Fatalf("fraction = %g, want 0.20", got)
	}
}

func TestSinkModelLocalCloserThanUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 15))
	g, err := topo.PowerLaw(30, 81, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	sinks := topDegreeNodes(g, 3)
	dist := bfsDistances(g, sinks)

	avgDist := func(placement SinkPlacement, seed uint64) float64 {
		r := rand.New(rand.NewPCG(seed, 1))
		th, err := SinkHighPriority(g, 3, 0.10, 0.20, 1000, placement, r)
		if err != nil {
			t.Fatal(err)
		}
		clientSet := map[graph.NodeID]bool{}
		for _, d := range th.Demands() {
			for _, u := range []graph.NodeID{d.Src, d.Dst} {
				isSink := false
				for _, s := range sinks {
					if s == u {
						isSink = true
					}
				}
				if !isSink {
					clientSet[u] = true
				}
			}
		}
		sum, count := 0.0, 0
		for c := range clientSet {
			sum += float64(dist[c])
			count++
		}
		return sum / float64(count)
	}

	local := avgDist(LocalClients, 100)
	uniform := avgDist(UniformClients, 100)
	if local > uniform {
		t.Fatalf("local clients are farther than uniform: %.2f > %.2f", local, uniform)
	}
}

func TestSinkModelErrors(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g, err := topo.Random(10, 20, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SinkHighPriority(g, 0, 0.1, 0.3, 100, UniformClients, rng); err == nil {
		t.Error("numSinks=0 accepted")
	}
	if _, err := SinkHighPriority(g, 10, 0.1, 0.3, 100, UniformClients, rng); err == nil {
		t.Error("numSinks=n accepted")
	}
	if _, err := SinkHighPriority(g, 2, 0, 0.3, 100, UniformClients, rng); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := SinkHighPriority(g, 2, 0.1, 0, 100, UniformClients, rng); err == nil {
		t.Error("f=0 accepted")
	}
	if _, err := SinkHighPriority(g, 2, 0.1, 0.3, 100, SinkPlacement(99), rng); err == nil {
		t.Error("bad placement accepted")
	}
}

func TestTopDegreeNodes(t *testing.T) {
	g := graph.New(4)
	g.AddLink(0, 1, 1, 0)
	g.AddLink(0, 2, 1, 0)
	g.AddLink(0, 3, 1, 0)
	g.AddLink(1, 2, 1, 0)
	top := topDegreeNodes(g, 2)
	if top[0] != 0 {
		t.Fatalf("top degree node = %d, want 0", top[0])
	}
	if top[1] != 1 && top[1] != 2 {
		t.Fatalf("second node = %d, want 1 or 2", top[1])
	}
}

// bfsDistances returns hop distance from the nearest sink for each node.
func bfsDistances(g *graph.Graph, sinks []graph.NodeID) []int {
	const inf = int(^uint(0) >> 1)
	dist := make([]int, g.NumNodes())
	for i := range dist {
		dist[i] = inf
	}
	var queue []graph.NodeID
	for _, s := range sinks {
		dist[s] = 0
		queue = append(queue, s)
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, id := range g.Out(u) {
			v := g.Edge(id).To
			if dist[v] == inf {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

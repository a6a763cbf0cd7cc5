package main

// The workload generators. -seed is their only input: the same seed gives
// the same dataset and the same per-client op streams, whatever the
// program under test does with them.

// Stream ids keep the dataset, each client's timed stream and each
// client's warm-up stream independent of one another.
const (
	streamDataset = 0
	streamClient  = 1   // + client index
	streamWarm    = 101 // + client index
)

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gen is a splitmix64 sequence: a few nanoseconds per draw and no
// allocation, so generating inside the timed loop costs the measurement
// nothing it could notice.
type gen struct{ s uint64 }

func newGen(seed, stream uint64) *gen {
	return &gen{s: mix64(seed) ^ mix64(stream+0x632be59bd9b4e019)}
}

func (g *gen) next() uint64 {
	g.s += 0x9e3779b97f4a7c15
	return mix64(g.s)
}

// intn draws from [0, n). The modulo bias at n ≤ 2^18 is below 2^-45.
func (g *gen) intn(n int) int { return int(g.next() % uint64(n)) }

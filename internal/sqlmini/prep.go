package sqlmini

import "sync"

// PrepCache is a concurrency-safe memo of Parse results — the prepared-
// statement cache every layer that prepares client-side shares (the
// simulated server, the shard router, the replica group), so parse-cache
// semantics cannot drift between them. The zero value is ready to use.
// Only successful parses are cached: a malformed statement re-parses (and
// re-fails identically) on every call, like a real prepare.
type PrepCache struct {
	mu sync.Mutex
	m  map[string]*Stmt
}

// MaxPrepared bounds a PrepCache. Statement text arrives from the wire and may
// embed literals, so the distinct texts a client can send are unbounded; past
// the bound a statement is parsed and returned without being cached.
const MaxPrepared = 1024

// Len reports the number of cached statements (tests).
func (c *PrepCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Prepare returns the cached statement for sql, parsing on first use.
func (c *PrepCache) Prepare(sql string) (*Stmt, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.m[sql]; ok {
		return st, nil
	}
	st, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	if c.m == nil {
		c.m = map[string]*Stmt{}
	}
	if len(c.m) < MaxPrepared {
		c.m[sql] = st
	}
	return st, nil
}

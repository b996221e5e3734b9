package vca

// registry interns every participant and SFU name of one call to a small
// dense integer ID assigned at build time. All per-packet dispatch in the
// call (SFU routing tables, client receive tables, rate estimators,
// flow-label caches) is index-addressed by these IDs; names survive only at
// the reporting boundary (netem addressing, printed output, public string
// APIs) where the registry translates back.
//
// An ID is its participant's identity for the whole call. The roster is
// fixed at build, so the ID space is len(Clients)+len(Servers) however the
// call churns, and the names are immutable afterwards: shard goroutines
// read them without synchronization. Membership is one absent bit per ID,
// flipped by Leave and Rejoin at a barrier.
type registry struct {
	ids    map[string]int32 // name -> ID (cold paths only)
	names  []string         // ID -> name
	server []bool           // ID -> the name is an SFU, not a participant
	absent []bool           // ID -> the participant has left the call
}

func newRegistry() *registry {
	return &registry{ids: map[string]int32{}}
}

// noID marks "no participant" in ID-indexed tables.
const noID int32 = -1

// intern returns the name's ID, allocating the next one on first use.
func (r *registry) intern(name string, isServer bool) int32 {
	if id, ok := r.ids[name]; ok {
		return id
	}
	id := int32(len(r.names))
	r.names = append(r.names, name)
	r.server = append(r.server, isServer)
	r.absent = append(r.absent, false)
	r.ids[name] = id
	return id
}

// id returns the name's ID, or noID if the name is unknown or has left.
func (r *registry) id(name string) int32 {
	if id, ok := r.ids[name]; ok && !r.absent[id] {
		return id
	}
	return noID
}

// name translates an ID back to its name (the reporting boundary).
func (r *registry) name(id int32) string { return r.names[id] }

// live reports whether the ID belongs to someone in the call (false for a
// departed participant whose packets are still in flight).
func (r *registry) live(id int32) bool {
	return id >= 0 && int(id) < len(r.names) && !r.absent[id]
}

// isServer reports whether the ID belongs to an SFU.
func (r *registry) isServer(id int32) bool { return r.server[id] }

// cap is the ID-space size: every ID-indexed table holds cap slots.
func (r *registry) cap() int { return len(r.names) }

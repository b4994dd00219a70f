package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// keyCache governs the memory spent on decoded evaluation-key sets: an LRU
// over resident sessions' keys, bounded by Config.KeyCacheBytes. Sessions
// touch the cache on every job dispatch; when the resident total exceeds
// the budget, the coldest evictable sessions' keys are dropped (their
// wire blobs stay on disk) and reloaded on demand by the scheduler's
// rehydration path. The cache only tracks sessions that hold keys and are
// backed by the durable store — a keyless session has nothing to evict,
// and a RAM-only session's keys would be unrecoverable.
//
// Counters are plain atomics read by the /metrics collector:
// bts_key_resident_bytes, bts_key_evictions_total, bts_key_reloads_total.
type keyCache struct {
	limit int64 // 0 = unbounded (no eviction)

	mu    sync.Mutex
	order *list.List // front = most recently used
	elems map[*session]*list.Element
	bytes int64

	evictions atomic.Int64
	reloads   atomic.Int64
}

func newKeyCache(limit int64) *keyCache {
	return &keyCache{
		limit: limit,
		order: list.New(),
		elems: make(map[*session]*list.Element),
	}
}

// residentBytes reports the tracked decoded-key total.
func (kc *keyCache) residentBytes() int64 {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	return kc.bytes
}

// touch marks sess most-recently-used (inserting it with its key
// footprint if absent) and returns the victims to evict to get back under
// budget: coldest first, never the just-touched session, and never a
// session with jobs submitted-but-not-completed (its keys are about to be
// needed again, and skipping it keeps eviction from racing dispatch).
// The caller drops the victims' decoded keys outside the cache lock.
func (kc *keyCache) touch(sess *session, bytes int64) []*session {
	if bytes <= 0 {
		return nil
	}
	kc.mu.Lock()
	defer kc.mu.Unlock()
	if el, ok := kc.elems[sess]; ok {
		kc.order.MoveToFront(el)
	} else {
		kc.elems[sess] = kc.order.PushFront(sess)
		kc.bytes += bytes
	}
	if kc.limit <= 0 || kc.bytes <= kc.limit {
		return nil
	}
	var victims []*session
	for el := kc.order.Back(); el != nil && kc.bytes > kc.limit; {
		prev := el.Prev()
		cand := el.Value.(*session)
		if cand != sess && cand.idle() {
			kc.order.Remove(el)
			delete(kc.elems, cand)
			kc.bytes -= cand.keyFootprint()
			kc.evictions.Add(1)
			victims = append(victims, cand)
		}
		el = prev
	}
	return victims
}

// drop removes sess from the cache (session closed or replaced).
func (kc *keyCache) drop(sess *session) {
	kc.mu.Lock()
	defer kc.mu.Unlock()
	if el, ok := kc.elems[sess]; ok {
		kc.order.Remove(el)
		delete(kc.elems, sess)
		kc.bytes -= sess.keyFootprint()
	}
}

package trace

// Completion-edge event vocabulary. The model layers emit one KInstant
// in category CatEdge per happens-before edge they establish, carrying
// the edge-specific sequence or volume in Arg and the packed endpoint
// pair (PackEndpoints) in Arg2. The causality analyzer replays these
// instants to reconstruct the synchronization graph — which thread's
// arrival released a barrier, which holder handed a lock to which
// waiter, which node's delivery completed a one-sided transfer — and
// walks blame back along them. Emission sits behind the EdgeObserver
// capability: no installed sink asking for edges means no instants and
// no argument computation, so the untraced hot path stays at 0
// allocs/op (pinned by the upc alloc-regression tests).
const (
	// CatEdge is the event category of completion-edge instants.
	CatEdge = "edge"

	// EdgeBarArrive records one thread's arrival at a barrier or
	// collective generation. Proc is the arriving process, Arg the
	// generation sequence number, Arg2 the packed (thread,thread,
	// node,node) identity of the arriver, Aux the site kind
	// ("barrier" or "coll").
	EdgeBarArrive = "bar-arrive"
	// EdgeBarRelease records the arrival that completes a generation
	// (the release of every waiter). Proc is the last arriver, Arg the
	// generation sequence, Arg2 the arriver's packed identity, Aux the
	// site kind.
	EdgeBarRelease = "bar-release"
	// EdgeLockGrant records a contended lock handoff. Proc is the
	// acquiring process, Arg the lock's home thread, Arg2 packs
	// (prevHolderThread, acquirerThread, prevHolderNode, acquirerNode).
	EdgeLockGrant = "lock-grant"
	// EdgeDeliver records a one-sided transfer leg completing at its
	// destination (fabric put/get legs). Arg is the byte volume, Arg2
	// packs the src/dst nodes, Aux the conduit label.
	EdgeDeliver = "deliver"
	// EdgeRetry records a fault-layer reissue: the waiter timed out and
	// re-injected the operation. Proc is the retrying process, Arg the
	// attempt number, Arg2 the packed endpoints of the stalled
	// transfer.
	EdgeRetry = "retry"
	// EdgeMsgMatch records a two-sided receive matching its send (the
	// late-sender edge). Proc is the receiving process, Arg the byte
	// volume, Arg2 packs (senderRank, receiverRank, senderNode,
	// receiverNode).
	EdgeMsgMatch = "msg-match"
	// EdgeRejoin records a reincarnated thread re-entering membership
	// with zero state: dead[] cleared, barrier/collective and steal sets
	// re-admitted. Proc is the rejoining process, Arg the restored byte
	// volume (always 0), Arg2 packs (sourceThread, rejoinerThread,
	// sourceNode, rejoinerNode), where the source is the rejoiner itself
	// because no peer holds state for it.
	EdgeRejoin = "rejoin"
)

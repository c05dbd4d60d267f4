package repl

import (
	"fmt"

	"cloudrepl/internal/cloud"
	"cloudrepl/internal/server"
	"cloudrepl/internal/sim"
	"cloudrepl/internal/sqlengine"
)

// MultiMaster implements the alternative replication architecture of the
// paper's §II: every replica maintains a full copy and serves both reads
// and writes, with the replication middleware resolving write-write
// conflicts by imposing a single total order on all write statements —
// every node executes the same writes in the same sequence (a
// certification/group-communication design in the Galera style, reduced to
// a logical sequencer).
//
// The architecture trades the master bottleneck for global write cost:
// every node spends CPU applying every write, so write-heavy workloads
// scale no better than one node, while reads scale with replicas and every
// node offers read-your-writes for its own clients.
type MultiMaster struct {
	env   *sim.Env
	net   *cloud.Network
	nodes []*MMNode

	// seqAt is where the logical sequencer lives; every write pays the
	// round trip origin → sequencer → all nodes.
	seqAt   cloud.Placement
	nextSeq uint64
}

// mmEvent is one globally-ordered write.
type mmEvent struct {
	Seq      uint64
	Database string
	Write    sqlengine.LoggedWrite
	Origin   int
}

// MMNode is one multi-master replica.
type MMNode struct {
	Srv   *server.DBServer
	Index int

	mm         *MultiMaster
	applyQ     *sim.Queue[mmEvent]
	pipe       *cloud.Pipe[mmEvent]
	appliedSeq uint64
	applied    *sim.Signal
	applyErrs  int
}

// NewMultiMaster wires the given servers into a multi-master group with
// the sequencer at seqAt. Servers must be preloaded identically.
func NewMultiMaster(env *sim.Env, net *cloud.Network, servers []*server.DBServer, seqAt cloud.Placement) *MultiMaster {
	mm := &MultiMaster{env: env, net: net, seqAt: seqAt}
	for i, srv := range servers {
		n := &MMNode{
			Srv:     srv,
			Index:   i,
			mm:      mm,
			applyQ:  sim.NewQueue[mmEvent](env, fmt.Sprintf("%s/mm-apply", srv.Name)),
			applied: sim.NewSignal(env).Named(srv.Name + "/mm-applied"),
		}
		n.pipe = cloud.NewPipe(net, seqAt, srv.Inst.Place, n.applyQ)
		mm.nodes = append(mm.nodes, n)
		sess := srv.Session("")
		env.Go(fmt.Sprintf("%s/mm-applier", srv.Name), func(p *sim.Proc) {
			for {
				e, ok := n.applyQ.Get(p)
				if !ok {
					return
				}
				// Every node pays the full write cost: the fundamental
				// write-amplification of multi-master replication.
				if err := n.apply(p, sess, e); err != nil {
					n.applyErrs++
				}
				n.appliedSeq = e.Seq
				n.applied.Broadcast()
			}
		})
	}
	return mm
}

func (n *MMNode) apply(p *sim.Proc, sess *sqlengine.Session, e mmEvent) error {
	if e.Database != "" && sess.DB() != e.Database {
		if err := sess.Use(e.Database); err != nil {
			return err
		}
	}
	res, err := sess.Replay(e.Write)
	if err != nil {
		return err
	}
	n.Srv.Inst.Work(p, n.Srv.Cost.StatementCost(res.Stats, false))
	return nil
}

// Nodes returns the group members.
func (mm *MultiMaster) Nodes() []*MMNode { return mm.nodes }

// Node returns member i.
func (mm *MultiMaster) Node(i int) *MMNode { return mm.nodes[i] }

// ExecWrite executes a write on this node: the statement is prepared locally,
// shipped to the total-order sequencer (one network leg), broadcast to
// every node in sequence order, and the call returns once this node has
// applied it — read-your-writes for local clients, the certification-style
// commit rule.
func (n *MMNode) ExecWrite(p *sim.Proc, db, sql string, args ...sqlengine.Value) error {
	stmt, err := n.Srv.Eng.Prepare(sql)
	if err != nil {
		return err
	}
	w, err := stmt.Logged(args)
	if err != nil {
		return err
	}
	mm := n.mm
	var seq uint64
	assigned := sim.NewSignal(mm.env).Named(n.Srv.Name + "/mm-seq-assign")
	mm.env.Schedule(mm.net.OneWay(n.Srv.Inst.Place, mm.seqAt), func() {
		mm.nextSeq++
		seq = mm.nextSeq
		e := mmEvent{Seq: seq, Database: db, Write: w, Origin: n.Index}
		for _, node := range mm.nodes {
			node.pipe.Send(e)
		}
		assigned.Broadcast()
	})
	// The callback cannot fire until this process yields, so waiting here
	// is race-free; seq is set by the time the signal arrives.
	assigned.Wait(p)
	for n.appliedSeq < seq {
		n.applied.Wait(p)
	}
	return nil
}

// ExecRead executes a read locally on this node.
func (n *MMNode) ExecRead(p *sim.Proc, db, sql string, args ...sqlengine.Value) (*sqlengine.ResultSet, error) {
	sess := n.Srv.Session(db)
	res, err := n.Srv.Exec(p, sess, sql, args...)
	if err != nil {
		return nil, err
	}
	return res.Set, nil
}

// AppliedSeq returns the newest globally-ordered write applied here.
func (n *MMNode) AppliedSeq() uint64 { return n.appliedSeq }

// ApplyErrors counts failed applies.
func (n *MMNode) ApplyErrors() int { return n.applyErrs }

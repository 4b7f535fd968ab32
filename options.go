package stringfigure

import (
	"errors"
	"fmt"

	"repro/internal/design"
)

// Options configures a network; the functional options accepted by New
// fill it in.
type Options struct {
	// Design selects the topology design: "sf" (the default), the "s2"
	// random baseline, the "dm"/"odm" meshes or the "fb"/"afb" flattened
	// butterflies — the six designs of the paper's headline comparisons.
	Design string
	// Nodes is the number of memory nodes (any value >= 2; the paper
	// evaluates up to 1296).
	Nodes int
	// Ports is the router port count for the sf/s2 designs (0 = the paper's
	// default for the scale: 4 up to 128 nodes, 8 beyond). The mesh and
	// butterfly designs have fixed port layouts.
	Ports int
	// Seed drives topology randomness; equal seeds reproduce identical
	// networks.
	Seed int64
	// Unidirectional selects the strict uni-directional wire variant (the
	// Section IV ablation: one wire per port half, clockwise-distance
	// routing; sf design only). The default is the bidirectional S2-style
	// construction the paper's performance results correspond to.
	Unidirectional bool
	// NoShortcuts disables the pre-provisioned shortcut wires (yields an
	// S2-ideal style network without elastic down-scaling support; sf
	// design only).
	NoShortcuts bool
	// Cluster attaches a distributed-execution cluster: SweepDistributed
	// and SaturationDistributed shard their points over its workers, and
	// fall back to the in-process pool while it has none.
	Cluster *Cluster
}

// Option configures New.
type Option func(*Options)

// WithDesign selects the topology design ("dm", "odm", "fb", "afb", "s2" or
// "sf"; the default is "sf"). Every design runs through the same
// Session/Sweep machinery; only the String Figure family supports
// reconfiguration (GateOff/GateOn/SetMounted).
func WithDesign(name string) Option { return func(o *Options) { o.Design = name } }

// WithNodes sets the number of memory nodes (required; >= 2).
func WithNodes(n int) Option { return func(o *Options) { o.Nodes = n } }

// WithPorts overrides the router port count (0 keeps the paper's default
// for the scale; sf/s2 designs only).
func WithPorts(p int) Option { return func(o *Options) { o.Ports = p } }

// WithSeed sets the topology seed; equal seeds reproduce identical networks.
func WithSeed(s int64) Option { return func(o *Options) { o.Seed = s } }

// Unidirectional selects the strict uni-directional wire variant of the
// Section IV ablation.
func Unidirectional() Option { return func(o *Options) { o.Unidirectional = true } }

// NoShortcuts disables the pre-provisioned shortcut wires (S2-ideal style,
// no elastic down-scaling support).
func NoShortcuts() Option { return func(o *Options) { o.NoShortcuts = true } }

// WithCluster attaches a distributed-execution cluster (NewCluster) to
// the network: SweepDistributed and SaturationDistributed shard points
// over its workers, falling back to the in-process pool while no workers
// are connected. Many networks may share one cluster.
func WithCluster(c *Cluster) Option { return func(o *Options) { o.Cluster = c } }

// Designs lists the supported design names in Figure 8 order.
func Designs() []string { return append([]string(nil), design.Names...) }

// New builds the selected design and deploys it at full scale:
//
//	net, err := stringfigure.New(stringfigure.WithNodes(64), stringfigure.WithSeed(7))
//	fb, err := stringfigure.New(stringfigure.WithDesign("fb"), stringfigure.WithNodes(128))
func New(opts ...Option) (*Network, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return newFromOptions(o)
}

// newFromOptions deploys a network from a filled Options struct.
func newFromOptions(o Options) (*Network, error) {
	if o.Nodes == 0 {
		return nil, fmt.Errorf("stringfigure: Options.Nodes required (use WithNodes)")
	}
	d, err := design.Build(design.Spec{
		Kind:           o.Design,
		N:              o.Nodes,
		Ports:          o.Ports,
		Seed:           o.Seed,
		Unidirectional: o.Unidirectional,
		NoShortcuts:    o.NoShortcuts,
	})
	if err != nil {
		if errors.Is(err, design.ErrUnknownKind) {
			return nil, fmt.Errorf("%w: %q (want one of %v)", ErrUnknownDesign, o.Design, design.Names)
		}
		return nil, err
	}
	net := newNetwork(d)
	net.cluster = o.Cluster
	return net, nil
}

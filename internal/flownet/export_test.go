package flownet

import "moment/internal/maxflow"

// Hooks for the external min-time differential (mintime_test.go).
var (
	LoadClusterSpec = loadClusterSpec
	MiniDemand      = miniDemand
)

func Bisector(n *Network) *maxflow.TimeBisector { return n.bis }

func ClusterBisector(cn *ClusterNetwork) *maxflow.TimeBisector { return cn.bis }

//! Mapping between facility-location instances and CONGEST networks.
//!
//! Facility `i` becomes node `i`, client `j` becomes node `m + j`, and the
//! communication edges are exactly the instance's links — the model of the
//! PODC 2005 paper, where a client can only talk to (and connect to)
//! facilities it has a link with.
//!
//! [`Backend`] is the other half of the model: which scheduler executes
//! the network, so each distributed solver has one runner for both.

use distfl_congest::{
    CongestConfig, CongestError, Network, NodeId, NodeLogic, SimConfig, SimReport, Simulator,
    Topology,
};
use distfl_instance::{ClientId, FacilityId, Instance, Solution};
use distfl_lp::DualSolution;

use crate::error::CoreError;
use crate::paydual::SimulatedRun;
use crate::runner::Outcome;

/// The role a CONGEST node plays in the bipartite facility-location
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The node simulates a facility.
    Facility(FacilityId),
    /// The node simulates a client.
    Client(ClientId),
}

/// The CONGEST node simulating facility `i`.
#[inline]
pub fn facility_node(i: FacilityId) -> NodeId {
    NodeId::new(i.raw())
}

/// The CONGEST node simulating client `j` in an instance with
/// `num_facilities` facilities.
#[inline]
pub fn client_node(num_facilities: usize, j: ClientId) -> NodeId {
    NodeId::new(num_facilities as u32 + j.raw())
}

/// The role of a CONGEST node in an instance with `num_facilities`
/// facilities.
#[inline]
pub fn node_role(num_facilities: usize, node: NodeId) -> Role {
    if node.index() < num_facilities {
        Role::Facility(FacilityId::new(node.raw()))
    } else {
        Role::Client(ClientId::new(node.raw() - num_facilities as u32))
    }
}

/// Builds the bipartite communication topology of an instance: one edge per
/// link.
///
/// # Errors
///
/// Propagates topology construction errors (cannot occur for a valid
/// instance; kept in the signature for honesty).
pub fn topology_of(instance: &Instance) -> Result<Topology, CongestError> {
    let m = instance.num_facilities();
    let pairs = instance
        .clients()
        .flat_map(|j| {
            instance
                .client_links(j)
                .ids
                .iter()
                .map(move |&i| (i as usize, j.index()))
                .collect::<Vec<_>>()
        })
        .collect::<Vec<_>>();
    Topology::bipartite(m, instance.num_clients(), pairs)
}

/// The scheduler a distributed solver's network runs on.
pub(crate) enum Backend {
    /// The lock-step [`Network`].
    LockStep(CongestConfig),
    /// The discrete-event [`Simulator`].
    Sim(SimConfig),
}

impl Backend {
    /// Runs `nodes` over `topo` through a fixed schedule of `rounds`
    /// rounds, then `harvest`s the solution (and dual, if any) from the
    /// final node states. `on_round` sees each lock-step round number just
    /// before the round executes; the simulator has no global round to
    /// show it. The simulator's report, verdicts and accusations are empty
    /// on the lock-step backend.
    pub(crate) fn execute<L: NodeLogic>(
        self,
        topo: Topology,
        nodes: Vec<L>,
        seed: u64,
        rounds: u32,
        on_round: impl FnMut(u32),
        harvest: impl FnOnce(&[L]) -> Result<(Solution, Option<DualSolution>), CoreError>,
    ) -> Result<SimulatedRun, CoreError> {
        let (nodes, transcript, report, verdicts, accusations) = match self {
            Backend::LockStep(config) => {
                let mut net = Network::with_config(topo, nodes, seed, config)?;
                net.run_with(rounds, on_round)?;
                let (nodes, transcript) = net.into_parts();
                (nodes, transcript, SimReport::default(), Vec::new(), Vec::new())
            }
            Backend::Sim(config) => {
                let mut sim = Simulator::new(topo, nodes, seed, config)?;
                sim.run(rounds)?;
                let (report, verdicts, accusations) =
                    (sim.report().clone(), sim.verdicts(), sim.accusations());
                let (nodes, transcript) = sim.into_parts();
                (nodes, transcript, report, verdicts, accusations)
            }
        };
        debug_assert_eq!(transcript.num_rounds(), rounds);
        let (solution, dual) = harvest(&nodes)?;
        let outcome =
            Outcome { solution, transcript: Some(transcript), dual, modeled_rounds: None };
        Ok(SimulatedRun { outcome, report, verdicts, accusations })
    }
}

/// The solution read off a distributed run's final node states: `client`
/// maps each client node to the facility it ended connected to; `None`
/// fails the run with [`CongestError::ProtocolIncomplete`] naming
/// `missing`.
pub(crate) fn harvest_solution<L>(
    instance: &Instance,
    nodes: &[L],
    missing: &'static str,
    client: impl FnMut(&L) -> Option<FacilityId>,
) -> Result<Solution, CoreError> {
    let assignment = nodes[instance.num_facilities()..]
        .iter()
        .map(client)
        .map(|facility| facility.ok_or(CongestError::ProtocolIncomplete { what: missing }))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Solution::from_assignment(instance, assignment)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use distfl_instance::generators::{GridNetwork, InstanceGenerator, UniformRandom};

    #[test]
    fn node_mapping_round_trips() {
        let m = 5;
        let f = FacilityId::new(3);
        let c = ClientId::new(7);
        assert_eq!(facility_node(f), NodeId::new(3));
        assert_eq!(client_node(m, c), NodeId::new(12));
        assert_eq!(node_role(m, NodeId::new(3)), Role::Facility(f));
        assert_eq!(node_role(m, NodeId::new(12)), Role::Client(c));
    }

    #[test]
    fn dense_instance_maps_to_complete_bipartite() {
        let inst = UniformRandom::new(4, 6).unwrap().generate(1).unwrap();
        let topo = topology_of(&inst).unwrap();
        assert_eq!(topo.num_nodes(), 10);
        assert_eq!(topo.num_edges(), 24);
        assert!(topo.are_neighbors(NodeId::new(0), NodeId::new(4)));
        assert!(!topo.are_neighbors(NodeId::new(0), NodeId::new(1)));
    }

    #[test]
    fn sparse_instance_maps_to_sparse_topology() {
        let inst = GridNetwork::with_radius(8, 8, 6, 20, 2).unwrap().generate(2).unwrap();
        let topo = topology_of(&inst).unwrap();
        assert_eq!(topo.num_edges(), inst.num_links());
        // Every link is an edge.
        for j in inst.clients() {
            for &i in inst.client_links(j).ids {
                assert!(topo.are_neighbors(facility_node(FacilityId::new(i)), client_node(6, j)));
            }
        }
    }
}

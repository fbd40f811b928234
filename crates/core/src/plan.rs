//! What an engine derives from its tables when it installs them, built
//! once per table set per thread.
//!
//! The classifier and the counter dispatch are functions of `(tables,
//! classifier mode, node id)` alone, so the engines of a campaign's
//! instances — the control node on its program point's tables, every peer
//! on the set its thread decoded off the wire — would each rebuild the
//! same ones. An [`InstallPlan`] holds them, immutable
//! and shared; a thread keeps the plans it built, keyed by the identity of
//! the table allocation. It names that allocation weakly: a finished
//! campaign's tables drop with their last owner, and the plans built for
//! them leave the cache at its next miss.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use vw_fsl::{CompiledCounterKind, CounterId, Dir, FilterId, NodeId, TableSet, WeakTableSet};

use crate::classify::{Classifier, ClassifierMode};

/// Plans a thread keeps; a miss past this many evicts the oldest.
const CACHED_PLANS: usize = 8;

/// Everything an engine builds from its tables at install and never
/// changes after.
#[derive(Debug)]
pub(crate) struct InstallPlan {
    /// Compiled classifier for the tables.
    pub(crate) classifier: Classifier,
    /// Indexed by [`dispatch_slot`]`(filter, dir)`: the counters that can
    /// match a packet so classified *at this node* — replaces the
    /// per-packet scan of the whole counter table. Empty when no packet
    /// counter is homed here.
    pub(crate) counter_dispatch: Vec<Vec<CounterId>>,
    /// Length of the `Init` frames sent from these tables, once the first
    /// has been built; 0 before.
    pub(crate) init_frame_len: Cell<usize>,
}

/// One plan a thread built.
struct Cached {
    tables: WeakTableSet,
    mode: ClassifierMode,
    me: NodeId,
    plan: Rc<InstallPlan>,
}

thread_local! {
    static PLANS: RefCell<Vec<Cached>> = const { RefCell::new(Vec::new()) };
}

impl InstallPlan {
    /// The plan for node `me` on `tables` in classifier `mode`: the one
    /// this thread built for the same allocation, or a new one.
    pub(crate) fn cached(tables: &TableSet, mode: ClassifierMode, me: NodeId) -> Rc<InstallPlan> {
        PLANS.with_borrow_mut(|plans| {
            let hit = plans
                .iter()
                .find(|c| c.tables.names(tables) && c.mode == mode && c.me == me);
            if let Some(cached) = hit {
                return Rc::clone(&cached.plan);
            }
            plans.retain(|c| c.tables.is_live());
            if plans.len() == CACHED_PLANS {
                plans.remove(0);
            }
            let plan = Rc::new(InstallPlan {
                classifier: Classifier::build(mode, tables),
                counter_dispatch: build_counter_dispatch(tables, me),
                init_frame_len: Cell::new(0),
            });
            plans.push(Cached {
                tables: tables.downgrade(),
                mode,
                me,
                plan: Rc::clone(&plan),
            });
            plan
        })
    }
}

/// Where `(filter, dir)` sits in [`InstallPlan::counter_dispatch`].
pub(crate) fn dispatch_slot(filter: FilterId, dir: Dir) -> usize {
    filter.index() * 2 + dir as usize
}

/// Builds the counter dispatch for `me`: every packet counter homed here,
/// under its [`dispatch_slot`]. Lets the packet path touch only the
/// counters that can possibly match instead of scanning the whole counter
/// table per frame.
fn build_counter_dispatch(tables: &TableSet, me: NodeId) -> Vec<Vec<CounterId>> {
    let mut dispatch: Vec<Vec<CounterId>> = Vec::new();
    for (i, c) in tables.counters.iter().enumerate() {
        if c.home != me {
            continue;
        }
        if let CompiledCounterKind::Packet(sel) = c.kind {
            if dispatch.is_empty() {
                dispatch.resize_with(tables.filters.len() * 2, Vec::new);
            }
            dispatch[dispatch_slot(sel.filter, sel.dir)].push(CounterId(i as u16));
        }
    }
    dispatch
}

//! The front end's compile half, pinned byte for byte. Every script
//! below is parsed and compiled with `vw_fsl::compile`; each scenario's
//! tables are encoded as the `Init` the control plane ships to a node
//! (`virtualwire::wire`), and the bytes fold into an FNV-1a digest. A
//! script the analysis refuses folds each error's span and message
//! instead. The inputs:
//!
//! * every deletion and replacement variant of the case-study scripts
//!   that `crates/fsl/tests/broken_scripts.rs` parses (that suite pins
//!   the parse and its printed program; this one what compiles from it);
//! * `scripts/*.fsl` and the paper's Figures 2, 5 and 6;
//! * the evaluation sweep's generated script, with and without its
//!   per-packet actions.
//!
//! A change to analysis or compilation that moves any table byte, error
//! message or span moves a digest.

use virtualwire::wire::{encode, ControlMsg};
use vw_fsl::{compile, parse, NodeId};

// The generator the benches and vwbench compile, used as they use it.
#[path = "../../bench/src/scriptgen.rs"]
mod scriptgen;

const SCRIPTS: [&str; 2] = [
    include_str!("../../../scripts/tcp_ss_ca.fsl"),
    include_str!("../../../scripts/rether_failover.fsl"),
];

const REPLACEMENTS: [char; 4] = ['"', '(', '0', ':'];

/// Figure 2: the TCP filter and node tables.
const FIGURE_2: &str = r#"
VAR SeqNoData, SeqNoAck;
FILTER_TABLE
TCP_data_rt1: (34 2 0x6000), (36 2 0x4000),
    (38 4 SeqNoData), (47 1 0x10 0x10)
TCP_ack_rt1: (34 2 0x4000), (36 2 0x6000),
    (42 4 SeqNoAck), (47 1 0x10 0x10)
TCP_syn: (34 2 0x6000), (36 2 0x4000),
    (47 1 0x02 0x02)
TCP_synack: (34 2 0x4000), (36 2 0x6000),
    (47 1 0x12 0x12)
TCP_data: (34 2 0x6000), (36 2 0x4000),
    (47 1 0x10 0x10)
TCP_ack: (34 2 0x4000), (36 2 0x6000),
    (47 1 0x10 0x10)
END
NODE_TABLE
node0 00:46:61:af:fe:23 192.168.1.1
node1 00:23:31:df:af:12 192.168.1.2
END
"#;

/// Figure 5: the slow-start → congestion-avoidance analysis script
/// (filter/node tables from Figure 2, with node2 added as the receiver the
/// scenario references).
const FIGURE_5: &str = r#"
FILTER_TABLE
TCP_synack: (34 2 0x4000), (36 2 0x6000), (47 1 0x12 0x12)
TCP_data: (34 2 0x6000), (36 2 0x4000), (47 1 0x10 0x10)
TCP_ack: (34 2 0x4000), (36 2 0x6000), (47 1 0x10 0x10)
END
NODE_TABLE
node1 00:46:61:af:fe:23 192.168.1.1
node2 00:23:31:df:af:12 192.168.1.2
END
SCENARIO TCP_SS_CA_algo
SYNACK: (TCP_synack, node2, node1, RECV)
SA_ACK: (TCP_data, node1, node2, SEND)
DATA: (TCP_data, node1, node2, SEND)
ACK: (TCP_ack, node2, node1, RECV)
CWND: (node1)
CanTx: (node1)
CCNT: (node1)
SSTHRESH: (node1)
(TRUE) >> ENABLE_CNTR( SYNACK );
    ENABLE_CNTR( SA_ACK );
    ENABLE_CNTR( ACK );
    ASSIGN_CNTR( CWND, 1 );
    ASSIGN_CNTR( CanTx );
    ENABLE_CNTR( CCNT );
    ASSIGN_CNTR( SSTHRESH, 2 );
/* Fault Injection: Drop SynAck at Receiver node */
((SYNACK > 0) && (SYNACK < 2)) >>
    DROP TCP_synack, node2, node1, RECV;
/*** ANALYSIS SCRIPT ***/
/* ACK in response to SYNACK matches tcp_data */
((SA_ACK = 1)) >> ENABLE_CNTR( DATA );
    DISABLE_CNTR( SA_ACK );
((DATA = 1)) >> RESET_CNTR( DATA );
    DECR_CNTR( CanTx , 1 );
/* slow-start */
((CWND <= SSTHRESH) && (ACK = 1)) >>
    RESET_CNTR( ACK );
    INCR_CNTR( CWND, 1);
    INCR_CNTR( CanTx, 1);
/* congestion avoidance */
((CWND > SSTHRESH) && (ACK = 1)) >>
    RESET_CNTR( ACK );
    INCR_CNTR( CanTx, 1 );
    INCR_CNTR( CCNT, 1 );
((CWND > SSTHRESH) && (CCNT > CWND)) >>
    RESET_CNTR( CCNT );
    INCR_CNTR(CWND, 1);
    INCR_CNTR(CanTx, 1);
/* Number of data packets that can be sent out
   is never negative */
((CanTx < 0)) >> FLAG_ERROR;
END
"#;

/// Figure 6: the Rether single-node-failure script.
const FIGURE_6: &str = r#"
FILTER_TABLE
tr_token: (12 2 0x9900), (14 2 0x0001)
tr_token_ack: (12 2 0x9900), (14 2 0x0010)
TCP_data: (34 2 0x6000), (36 2 0x4000),
    (47 1 0x10 0x10)
END
NODE_TABLE
node1 00:00:00:00:00:01 192.168.1.1
node2 00:00:00:00:00:02 192.168.1.2
node3 00:00:00:00:00:03 192.168.1.3
node4 00:00:00:00:00:04 192.168.1.4
END
SCENARIO Test_Single_Node_Failure 1sec
CNT_DATA: (TCP_data, node1, node4, RECV)
TokensTo2: (tr_token, node1, node2, RECV)
TokensFrom2: (tr_token, node2, node3, SEND)
TokensTo4: (tr_token, node2, node4, RECV)
TokensTo1: (tr_token, node4, node1, RECV)
((CNT_DATA > 1000)) >>
    ENABLE_CNTR( TokensTo2 );
((TokensTo2 = 1)) >> FAIL(node3);
    ENABLE_CNTR( TokensFrom2 );
    RESET_CNTR( TokensTo2 );
((TokensFrom2 = 3)) >> ENABLE_CNTR(TokensTo4);
((TokensTo4 = 1)) >> ENABLE_CNTR(TokensTo1);
/*** ANALYSIS SCRIPT ***/
((TokensFrom2 > 3)) >> FLAG_ERROR;
((TokensTo2 = 1) && (TokensTo4 = 1)
    && (TokensTo1 = 1)) >> STOP;
END
"#;

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so adjacent results cannot run together.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Every broken variant of `script`: each char deleted, then each char
/// replaced by each of [`REPLACEMENTS`] (the order of `broken_scripts`).
fn variants(script: &str) -> impl Iterator<Item = String> + '_ {
    script.char_indices().flat_map(move |(at, c)| {
        let (head, tail) = (&script[..at], &script[at + c.len_utf8()..]);
        let deleted = format!("{head}{tail}");
        let replaced = REPLACEMENTS.map(|r| format!("{head}{r}{tail}"));
        std::iter::once(deleted).chain(replaced)
    })
}

/// Folds what `source` compiles to into `digest`: each scenario's `Init`
/// bytes, or each error's span and message. `None` when it does not
/// parse; else whether it compiled.
fn fold(digest: &mut Fnv1a, source: &str) -> Option<bool> {
    let program = parse(source).ok()?;
    match compile(&program) {
        Ok(sets) => {
            for tables in sets {
                let init = ControlMsg::Init {
                    tables,
                    you_are: NodeId(0),
                };
                digest.write(&encode(&init));
            }
            Some(true)
        }
        Err(errors) => {
            for e in errors {
                digest.write(format!("{:?} {}", e.span(), e.message()).as_bytes());
            }
            Some(false)
        }
    }
}

/// One digest over a whole source that must parse.
fn digest_of(source: &str) -> (bool, String) {
    let mut digest = Fnv1a::new();
    let compiled = fold(&mut digest, source).expect("the script parses");
    (compiled, digest.hex())
}

#[test]
fn every_broken_case_study_variant_that_parses_compiles_as_pinned() {
    let mut digest = Fnv1a::new();
    let (mut compiled, mut refused) = (0u32, 0u32);
    for script in SCRIPTS {
        for source in variants(script) {
            match fold(&mut digest, &source) {
                Some(true) => compiled += 1,
                Some(false) => refused += 1,
                None => {}
            }
        }
    }
    assert_eq!(
        (compiled, refused, digest.hex()),
        (14031, 1387, "9b7a9fa844bdbd9a".to_string()),
        "compiled / refused by analysis / digest"
    );
}

#[test]
fn the_case_study_scripts_and_the_paper_figures_compile_as_pinned() {
    let got = [
        ("tcp_ss_ca.fsl", SCRIPTS[0]),
        ("rether_failover.fsl", SCRIPTS[1]),
        ("fig2", FIGURE_2),
        ("fig5", FIGURE_5),
        ("fig6", FIGURE_6),
    ]
    .map(|(name, source)| (name, digest_of(source)));
    let want = [
        ("tcp_ss_ca.fsl", (true, "3c57715f717614ca")),
        ("rether_failover.fsl", (true, "0d1f86177ffdb6ad")),
        ("fig2", (false, "ac266f60819bbb96")),
        ("fig5", (true, "9eebd3f80e11c1a9")),
        ("fig6", (true, "0d60bc0d426157d0")),
    ]
    .map(|(name, (ok, hex))| (name, (ok, hex.to_string())));
    assert_eq!(got, want);
}

#[test]
fn the_evaluation_sweep_compiles_as_pinned() {
    let got = [
        (25, 25, 0x4000),
        (25, 0, 0x4000),
        (25, 25, 0x6363),
        (25, 0, 0x6363),
    ]
    .map(|(filters, actions, port)| {
        let source = scriptgen::sweep_script(filters, actions, port);
        ((filters, actions, port), digest_of(&source))
    });
    let want = [
        ((25, 25, 0x4000), (true, "47141c3387481813")),
        ((25, 0, 0x4000), (true, "e00e47a91d53d9fe")),
        ((25, 25, 0x6363), (true, "0dd774bd0917252d")),
        ((25, 0, 0x6363), (true, "455538566635d5bc")),
    ]
    .map(|(key, (ok, hex))| (key, (ok, hex.to_string())));
    assert_eq!(got, want);
}

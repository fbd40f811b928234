//! The front end on broken input, pinned byte for byte. Each case-study
//! script (Fig 5's `tcp_ss_ca.fsl`, Fig 6's `rether_failover.fsl`) is
//! parsed once per character position with that character deleted, and
//! once more with it replaced by each of `"`, `(`, `0` and `:`. Every
//! result folds into one FNV-1a digest: the printed program for a parse
//! that succeeds, the error's span and text for one that fails. A change
//! to the lexer or parser that moves any message, position or AST moves
//! the digest.

use vw_fsl::{parse, print};

const SCRIPTS: [&str; 2] = [
    include_str!("../../../scripts/tcp_ss_ca.fsl"),
    include_str!("../../../scripts/rether_failover.fsl"),
];

const REPLACEMENTS: [char; 4] = ['"', '(', '0', ':'];

struct Fnv1a(u64);

impl Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so adjacent results cannot run together.
        self.0 = (self.0 ^ 0xff).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Every broken variant of `script`: each char deleted, then each char
/// replaced by each of [`REPLACEMENTS`].
fn variants(script: &str) -> impl Iterator<Item = String> + '_ {
    script.char_indices().flat_map(move |(at, c)| {
        let (head, tail) = (&script[..at], &script[at + c.len_utf8()..]);
        let deleted = format!("{head}{tail}");
        let replaced = REPLACEMENTS.map(|r| format!("{head}{r}{tail}"));
        std::iter::once(deleted).chain(replaced)
    })
}

#[test]
fn every_deletion_and_replacement_in_the_case_study_scripts_parses_as_pinned() {
    let mut digest = Fnv1a(0xcbf2_9ce4_8422_2325);
    let (mut parsed, mut refused) = (0u32, 0u32);
    for script in SCRIPTS {
        for source in variants(script) {
            match parse(&source) {
                Ok(program) => {
                    parsed += 1;
                    digest.write(print(&program).as_bytes());
                }
                Err(e) => {
                    refused += 1;
                    digest.write(format!("{:?} {e}", e.span()).as_bytes());
                }
            }
        }
    }
    assert_eq!(
        (parsed, refused, format!("{:016x}", digest.0)),
        (15418, 9682, "cb54a820c971fa95".to_string()),
        "parsed / refused / digest"
    );
}

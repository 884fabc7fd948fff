//! The executable FTP model: the COPS-FTP control-channel state machine
//! as a nondeterministic acceptor over reply blocks, extended to the
//! data plane.
//!
//! Unlike HTTP, the FTP reply *bytes* are not a pure function of the
//! inbound stream — `STAT` bodies embed live server counters — so the
//! control channel is accepted at the `(reply code, multiline?)` level:
//! the decoded command stream determines the exact sequence of reply
//! codes, and a conforming trace must realize a prefix of it (prefix
//! closure again covers faults cutting the stream anywhere).
//!
//! The model keeps its own login FSM, working directory and a *replica*
//! VFS seeded with the fixture content. Replaying the connection's own
//! `MKD`/`STOR` mutations against the replica keeps it exact as long as
//! schedules keep mutated paths disjoint across connections — which the
//! generator guarantees.
//!
//! `PASV` transfers are modeled as [`StepResult::Transfer`] slots with
//! three admissible outcomes, decided by the observed reply block:
//!
//! * **success** (`150` + `226`): the joined data-connection trace must
//!   carry the byte-exact payload (`LIST`/`RETR` downloads against the
//!   replica VFS; `STOR` uploads are committed back into the replica so
//!   a later `RETR` of the same path checks write-back visibility), and
//!   the data socket must have closed *before* the server wrote the
//!   `150 …\r\n226 …` completion — checked via the trace log's global
//!   event sequence.
//! * **data failure** (`425`): admissible only on tolerant connections
//!   (faulty profile, early close, or a planned mid-transfer abort); a
//!   partially-transferred download must still be a byte prefix of the
//!   expected payload.
//! * **static failure** (`550`): the replica predicts it from the path
//!   alone (missing file / bad STOR target), with no data socket
//!   accepted for downloads and a drained-then-rejected upload for
//!   `STOR`.

use std::sync::Arc;

use nserver_core::tap::ConnTrace;
use nserver_ftp::commands::Command;
use nserver_ftp::legacy::users::UserRegistry;
use nserver_ftp::legacy::vfs::{normalize, Vfs};
use nserver_ftp::observe::{extract_commands, listing_text, split_replies, ReplyStreamEnd};
use nserver_ftp::FtpRequest;

use crate::Violation;

/// The fixture served in every FTP conformance run.
pub struct FtpFixture;

impl FtpFixture {
    fn populate(vfs: &Vfs) {
        vfs.mkdir("/pub");
        vfs.write("/pub/hello.txt", b"hello ftp".to_vec());
    }

    /// The live server's filesystem.
    pub fn vfs() -> Arc<Vfs> {
        let vfs = Arc::new(Vfs::new());
        Self::populate(&vfs);
        vfs
    }

    /// The live server's account registry: `anonymous` plus
    /// `alice`/`secret`.
    pub fn users() -> Arc<UserRegistry> {
        let users = Arc::new(UserRegistry::new().with_anonymous());
        users.add_user("alice", "secret");
        users
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum LoginState {
    Greeted,
    NeedPassword(String),
    LoggedIn,
}

/// Which transfer command owns a data connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferKind {
    /// Directory listing download.
    List,
    /// File download.
    Retr,
    /// File upload.
    Stor,
}

/// A modeled data transfer: everything the checker needs to judge the
/// observed outcome of one `Action::Defer` transfer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransferSpec {
    /// 1-based ordinal of the `PASV` whose listener the transfer
    /// consumed — the ordinal the tap stamps onto the data connection's
    /// trace, so the two join.
    pub ordinal: u32,
    /// The transfer command.
    pub kind: TransferKind,
    /// Byte-exact expected download payload (`List`/`Retr`). `None` for
    /// uploads, and for downloads of a tainted path (written by a `STOR`
    /// whose uploaded bytes were not observed).
    pub expect: Option<Vec<u8>>,
    /// Normalized upload target (`Stor` only).
    pub stor_path: Option<String>,
    /// `Stor` whose VFS write must fail (target is a directory / parent
    /// missing): the upload is accepted and drained, then rejected 550.
    pub static_fail: bool,
}

/// What the model says about one decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepResult {
    /// Expect this `(code, multiline)` reply; the session continues.
    Reply(u16, bool),
    /// Expect this reply, then the server closes (QUIT).
    Close(u16, bool),
    /// A data transfer slot with outcome-dependent replies.
    Transfer(TransferSpec),
}

/// The per-connection specification machine.
pub struct FtpModel {
    state: LoginState,
    cwd: String,
    vfs: Vfs,
    users: Arc<UserRegistry>,
    /// The ordinal of the listener the last `PASV` opened, until a
    /// transfer consumes it.
    pasv_pending: Option<u32>,
    pasvs: u32,
    tainted: std::collections::HashSet<String>,
}

impl Default for FtpModel {
    fn default() -> Self {
        Self::new()
    }
}

impl FtpModel {
    /// A fresh session over a replica of the fixture.
    pub fn new() -> Self {
        let vfs = Vfs::new();
        FtpFixture::populate(&vfs);
        Self {
            state: LoginState::Greeted,
            cwd: "/".to_string(),
            vfs,
            users: FtpFixture::users(),
            pasv_pending: None,
            pasvs: 0,
            tainted: std::collections::HashSet::new(),
        }
    }

    /// Would the replica VFS reject `vfs.write(path, …)`? Mirrors
    /// [`Vfs::write`]: the target must not be a directory and its parent
    /// must be an existing directory.
    fn stor_would_fail(&self, path: &str) -> bool {
        if self.vfs.is_dir(path) {
            return true;
        }
        let parent = match path.rfind('/') {
            Some(0) => "/",
            Some(i) => &path[..i],
            None => return true,
        };
        !self.vfs.is_dir(parent)
    }

    /// Commit a successful `STOR`'s effect to the replica. `observed` is
    /// the uploaded byte stream from the joined data trace; without one
    /// (control-only checking) the path is written empty and marked
    /// tainted so later downloads skip payload comparison.
    pub fn commit_stor(&mut self, spec: &TransferSpec, observed: Option<Vec<u8>>) {
        let Some(path) = &spec.stor_path else { return };
        match observed {
            Some(bytes) => {
                self.vfs.write(path, bytes);
                self.tainted.remove(path);
            }
            None => {
                self.vfs.write(path, Vec::new());
                self.tainted.insert(path.clone());
            }
        }
    }

    /// Advance the machine by one decoded request.
    pub fn step(&mut self, req: &FtpRequest) -> StepResult {
        use StepResult::{Close, Reply, Transfer};
        let cmd = match req {
            FtpRequest::Command(c) => c,
            FtpRequest::Malformed(_) => return Reply(500, false),
        };
        // Pre-login command set.
        match cmd {
            Command::User(name) => {
                if self.users.knows(name) {
                    self.state = LoginState::NeedPassword(name.clone());
                    return Reply(331, false);
                }
                self.state = LoginState::Greeted;
                return Reply(530, false);
            }
            Command::Pass(pw) => {
                let LoginState::NeedPassword(user) = self.state.clone() else {
                    return Reply(503, false);
                };
                if self.users.authenticate(&user, pw) {
                    self.state = LoginState::LoggedIn;
                    return Reply(230, false);
                }
                self.state = LoginState::Greeted;
                return Reply(530, false);
            }
            Command::Quit => return Close(221, false),
            Command::Syst => return Reply(215, false),
            Command::Noop => return Reply(200, false),
            Command::Unknown(_) => return Reply(502, false),
            _ => {}
        }
        if self.state != LoginState::LoggedIn {
            return Reply(530, false);
        }
        match cmd {
            Command::Pwd => Reply(257, false),
            Command::Cwd(dir) => match normalize(&self.cwd, dir) {
                Some(path) if self.vfs.is_dir(&path) => {
                    self.cwd = path;
                    Reply(250, false)
                }
                _ => Reply(550, false),
            },
            Command::Type(_) => Reply(200, false),
            Command::Mkd(dir) => match normalize(&self.cwd, dir) {
                Some(path) if self.vfs.mkdir(&path) => Reply(257, false),
                _ => Reply(550, false),
            },
            Command::Dele(file) => match normalize(&self.cwd, file) {
                Some(path) if self.vfs.delete(&path) => Reply(250, false),
                _ => Reply(550, false),
            },
            Command::Size(file) => match normalize(&self.cwd, file).and_then(|p| self.vfs.size(&p))
            {
                Some(_) => Reply(213, false),
                None => Reply(550, false),
            },
            Command::Stat(None) => Reply(211, true),
            Command::Stat(Some(p)) => match normalize(&self.cwd, p) {
                Some(t) if self.vfs.is_dir(&t) || self.vfs.size(&t).is_some() => Reply(211, true),
                _ => Reply(550, false),
            },
            Command::SiteDump => Reply(211, true),
            Command::SiteTrace => Reply(211, true),
            Command::Pasv => {
                self.pasvs += 1;
                self.pasv_pending = Some(self.pasvs);
                Reply(227, false)
            }
            Command::List(path) => {
                let Some(ordinal) = self.pasv_pending.take() else {
                    return Reply(503, false);
                };
                let target = match path {
                    Some(p) => match normalize(&self.cwd, p) {
                        Some(t) => t,
                        // Listener consumed, no Defer created.
                        None => return Reply(550, false),
                    },
                    None => self.cwd.clone(),
                };
                match self.vfs.list(&target) {
                    // Fails inside the closure, before accepting the
                    // data socket: plain 550.
                    None => Reply(550, false),
                    Some(entries) => Transfer(TransferSpec {
                        ordinal,
                        kind: TransferKind::List,
                        expect: Some(listing_text(&entries).into_bytes()),
                        stor_path: None,
                        static_fail: false,
                    }),
                }
            }
            Command::Retr(file) => {
                let Some(ordinal) = self.pasv_pending.take() else {
                    return Reply(503, false);
                };
                let Some(path) = normalize(&self.cwd, file) else {
                    return Reply(550, false);
                };
                match self.vfs.read(&path) {
                    None => Reply(550, false),
                    Some(bytes) => Transfer(TransferSpec {
                        ordinal,
                        kind: TransferKind::Retr,
                        expect: (!self.tainted.contains(&path)).then(|| bytes.to_vec()),
                        stor_path: None,
                        static_fail: false,
                    }),
                }
            }
            Command::Stor(file) => {
                let Some(ordinal) = self.pasv_pending.take() else {
                    return Reply(503, false);
                };
                let Some(path) = normalize(&self.cwd, file) else {
                    return Reply(550, false);
                };
                let static_fail = self.stor_would_fail(&path);
                Transfer(TransferSpec {
                    ordinal,
                    kind: TransferKind::Stor,
                    expect: None,
                    stor_path: Some(path),
                    static_fail,
                })
            }
            Command::User(_)
            | Command::Pass(_)
            | Command::Quit
            | Command::Syst
            | Command::Noop
            | Command::Unknown(_) => unreachable!("handled before the login gate"),
        }
    }
}

/// The expected `(code, multiline)` reply sequence for `inbound` on the
/// all-success path, starting with the 220 greeting. Transfers contribute
/// their `150` + `226` pair (or the statically-predicted `550`); this is
/// the complete-delivery target for strict (fault-free, abort-free)
/// connections.
pub fn expected_replies(inbound: &[u8]) -> Vec<(u16, bool)> {
    let mut model = FtpModel::new();
    let mut expected = vec![(220, false)];
    for req in &extract_commands(inbound).requests {
        match model.step(req) {
            StepResult::Reply(code, multi) => expected.push((code, multi)),
            StepResult::Close(code, multi) => {
                expected.push((code, multi));
                break;
            }
            StepResult::Transfer(spec) => {
                if spec.static_fail {
                    expected.push((550, false));
                } else {
                    expected.push((150, false));
                    expected.push((226, false));
                    model.commit_stor(&spec, None);
                }
            }
        }
    }
    expected
}

/// For each `PASV` command in `inbound`, in order, whether the model
/// expects it to be answered `227` — i.e. whether the server bound a
/// listener the paired data op should dial. Pre-login rejections and
/// commands after a session close yield `false`; the driver must skip
/// those ops, or every later op would pair with the wrong listener.
pub fn pasv_outcomes(inbound: &[u8]) -> Vec<bool> {
    let mut model = FtpModel::new();
    let mut outcomes = Vec::new();
    let mut open = true;
    for req in &extract_commands(inbound).requests {
        let is_pasv = matches!(req, FtpRequest::Command(Command::Pasv));
        if !open {
            if is_pasv {
                outcomes.push(false);
            }
            continue;
        }
        match model.step(req) {
            StepResult::Reply(code, _) => {
                if is_pasv {
                    outcomes.push(code == 227);
                }
            }
            StepResult::Close(..) => {
                if is_pasv {
                    outcomes.push(false);
                }
                open = false;
            }
            StepResult::Transfer(spec) => model.commit_stor(&spec, None),
        }
    }
    outcomes
}

/// Data-plane context for [`check_ftp_session`].
pub struct FtpDataCtx<'a> {
    /// Data-connection traces joined to this control connection (any
    /// order; matched by transfer ordinal).
    pub children: &'a [ConnTrace],
    /// Whether the run recorded data traces at all. `false` (control-only
    /// checking) skips the join, payload, and ordering checks.
    pub recorded: bool,
    /// Tolerate data-plane failure outcomes (`425`, truncated downloads):
    /// set when the connection's fault profile is not `Clean`, it closes
    /// early, or a planned data op aborts mid-transfer.
    pub tolerant: bool,
}

impl FtpDataCtx<'_> {
    /// Control-only checking: no data traces, everything tolerated.
    pub fn control_only() -> FtpDataCtx<'static> {
        FtpDataCtx {
            children: &[],
            recorded: false,
            tolerant: true,
        }
    }
}

/// Check one control-connection trace, plus its joined data-connection
/// traces, against the model.
pub fn check_ftp_session(trace: &ConnTrace, strict: bool, data: &FtpDataCtx) -> Vec<Violation> {
    let mut violations = Vec::new();
    if let Some(v) = crate::event_order_violation(trace) {
        violations.push(v);
    }
    let observed = split_replies(&trace.outbound());
    let blocks = &observed.complete;
    let vio = |kind, detail| Violation {
        accept_index: trace.accept_index,
        profile: trace.profile.clone(),
        kind,
        detail,
    };
    let child_for = |ordinal: u32| {
        data.children
            .iter()
            .find(|c| c.parent.map(|p| p.transfer_ordinal) == Some(ordinal))
    };

    let mut model = FtpModel::new();
    let mut bi = 0usize; // next observed block
    let mut mismatch = false;
    let mut closed = false;
    let requests = extract_commands(&trace.inbound()).requests;
    let mut req_iter = requests.iter();
    // The greeting, then one step per decoded request.
    let mut pending: Option<StepResult> = Some(StepResult::Reply(220, false));
    'walk: loop {
        let step = match pending.take() {
            Some(s) => s,
            None => {
                if closed {
                    break;
                }
                match req_iter.next() {
                    Some(req) => model.step(req),
                    None => break,
                }
            }
        };
        match step {
            StepResult::Reply(code, multi) | StepResult::Close(code, multi) => {
                if matches!(step, StepResult::Close(..)) {
                    closed = true;
                }
                let Some(block) = blocks.get(bi) else {
                    break; // prefix end: delivery was cut here
                };
                if (block.code, block.multiline) != (code, multi) {
                    violations.push(vio(
                        "reply-mismatch",
                        format!(
                            "reply {}: got {}{} {:?}, model expects {}{}",
                            bi,
                            block.code,
                            if block.multiline { "-" } else { "" },
                            block.text,
                            code,
                            if multi { "-" } else { "" },
                        ),
                    ));
                    mismatch = true;
                    break;
                }
                bi += 1;
            }
            StepResult::Transfer(spec) => {
                let Some(block) = blocks.get(bi) else {
                    break; // outcome never delivered
                };
                let child = child_for(spec.ordinal);
                match block.code {
                    150 if !spec.static_fail => {
                        let offset_150 = block.offset;
                        bi += 1;
                        match blocks.get(bi) {
                            None => {} // cut between 150 and 226 (faults)
                            Some(b2) if b2.code == 226 && !b2.multiline => bi += 1,
                            Some(b2) => {
                                violations.push(vio(
                                    "reply-mismatch",
                                    format!(
                                        "reply {}: got {} {:?} after 150, model expects 226",
                                        bi, b2.code, b2.text
                                    ),
                                ));
                                mismatch = true;
                                break 'walk;
                            }
                        }
                        check_transfer_success(
                            trace,
                            &spec,
                            child,
                            data,
                            offset_150,
                            &mut model,
                            &mut violations,
                        );
                    }
                    425 if !spec.static_fail => {
                        bi += 1;
                        if !data.tolerant {
                            violations.push(vio(
                                "unexpected-data-failure",
                                format!(
                                    "transfer {} ({:?}) failed 425 on a clean, abort-free \
                                     connection",
                                    spec.ordinal, spec.kind
                                ),
                            ));
                        }
                        // A partially-served download must still be a
                        // prefix of the modeled payload.
                        if let (Some(child), Some(expect)) = (child, &spec.expect) {
                            let sent = child.outbound();
                            if !expect.starts_with(&sent) {
                                violations.push(vio(
                                    "data-payload-mismatch",
                                    format!(
                                        "transfer {} ({:?}): failed transfer sent {} bytes that \
                                         are not a prefix of the {}-byte expected payload",
                                        spec.ordinal,
                                        spec.kind,
                                        sent.len(),
                                        expect.len()
                                    ),
                                ));
                            }
                        }
                    }
                    550 if spec.static_fail => {
                        // Upload accepted and drained, then rejected; no
                        // replica write.
                        bi += 1;
                    }
                    _ => {
                        violations.push(vio(
                            "reply-mismatch",
                            format!(
                                "reply {}: got {} {:?} for transfer {} ({:?}), model allows {}",
                                bi,
                                block.code,
                                block.text,
                                spec.ordinal,
                                spec.kind,
                                if spec.static_fail {
                                    "550"
                                } else {
                                    "150+226 or 425"
                                },
                            ),
                        ));
                        mismatch = true;
                        break 'walk;
                    }
                }
            }
        }
    }

    if !mismatch && bi < blocks.len() {
        let block = &blocks[bi];
        violations.push(vio(
            "excess-reply",
            format!(
                "reply {} ({} {:?}) past the {} the model allows",
                bi,
                block.code,
                block.text,
                blocks.len()
            ),
        ));
    }
    if let ReplyStreamEnd::Malformed { offset, ref why } = observed.end {
        violations.push(vio(
            "malformed-replies",
            format!("outbound unparseable as FTP replies at +{offset}: {why}"),
        ));
    }
    if strict && violations.is_empty() {
        let expected = expected_replies(&trace.inbound());
        if blocks.len() != expected.len() || observed.end != ReplyStreamEnd::Clean {
            violations.push(vio(
                "incomplete-delivery",
                format!(
                    "clean session delivered {} of {} expected replies (end: {:?})",
                    blocks.len(),
                    expected.len(),
                    observed.end,
                ),
            ));
        }
    }
    violations
}

/// The success-outcome checks for one transfer: payload byte-equality,
/// STOR write-back into the replica, data-before-completion ordering, and
/// presence of the joined data trace.
fn check_transfer_success(
    trace: &ConnTrace,
    spec: &TransferSpec,
    child: Option<&ConnTrace>,
    data: &FtpDataCtx,
    offset_150: usize,
    model: &mut FtpModel,
    violations: &mut Vec<Violation>,
) {
    let vio = |kind, detail| Violation {
        accept_index: trace.accept_index,
        profile: trace.profile.clone(),
        kind,
        detail,
    };
    match child {
        None => {
            // Success reported but no data connection was ever recorded:
            // with the tap attached that means the server lied about the
            // transfer (or completed it out of band).
            if data.recorded {
                violations.push(vio(
                    "missing-data-trace",
                    format!(
                        "transfer {} ({:?}) reported 150/226 but no data connection was recorded",
                        spec.ordinal, spec.kind
                    ),
                ));
            }
            if spec.kind == TransferKind::Stor {
                model.commit_stor(spec, None);
            }
        }
        Some(child) => {
            match spec.kind {
                TransferKind::List | TransferKind::Retr => {
                    if let Some(expect) = &spec.expect {
                        let sent = child.outbound();
                        if &sent != expect {
                            violations.push(vio(
                                "data-payload-mismatch",
                                format!(
                                    "transfer {} ({:?}): data socket carried {} bytes, replica \
                                     expects {} (first divergence at byte {})",
                                    spec.ordinal,
                                    spec.kind,
                                    sent.len(),
                                    expect.len(),
                                    sent.iter()
                                        .zip(expect.iter())
                                        .position(|(a, b)| a != b)
                                        .unwrap_or_else(|| sent.len().min(expect.len())),
                                ),
                            ));
                        }
                    }
                }
                TransferKind::Stor => {
                    model.commit_stor(spec, Some(child.inbound()));
                }
            }
            // 150/226 are encoded and written strictly after the transfer
            // closure returns, and the closure closes the data socket
            // (recording its final event) before returning — so every
            // data event must be sequenced before the control write that
            // carried the 150.
            if let (Some(data_last), Some(ctrl_seq)) =
                (child.last_seq(), trace.seq_at_outbound_offset(offset_150))
            {
                if data_last > ctrl_seq {
                    violations.push(vio(
                        "premature-completion",
                        format!(
                            "transfer {} ({:?}): completion reply written (seq {}) before the \
                             data socket finished (seq {})",
                            spec.ordinal, spec.kind, ctrl_seq, data_last
                        ),
                    ));
                }
            }
        }
    }
}

/// Check one control-connection trace against the model, control channel
/// only (no data traces). Kept for corpus replay of control-only
/// schedules and hand-built traces; explorer runs use
/// [`check_ftp_session`] with the recorded data context.
pub fn check_ftp(trace: &ConnTrace, strict: bool) -> Vec<Violation> {
    let data = FtpDataCtx {
        tolerant: !strict,
        ..FtpDataCtx::control_only()
    };
    check_ftp_session(trace, strict, &data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nserver_core::tap::{ConnTrace, DataParent, TapEvent};

    fn seq(inbound: &str) -> Vec<(u16, bool)> {
        expected_replies(inbound.as_bytes())
    }

    #[test]
    fn login_flow_codes() {
        assert_eq!(
            seq("USER alice\r\nPASS secret\r\nPWD\r\nQUIT\r\n"),
            vec![
                (220, false),
                (331, false),
                (230, false),
                (257, false),
                (221, false)
            ]
        );
    }

    #[test]
    fn wrong_password_resets_the_fsm() {
        assert_eq!(
            seq("USER alice\r\nPASS wrong\r\nPASS secret\r\n"),
            vec![(220, false), (331, false), (530, false), (503, false)]
        );
    }

    #[test]
    fn login_gate_and_pre_login_commands() {
        assert_eq!(
            seq("PWD\r\nSYST\r\nNOOP\r\nXYZZY\r\n"),
            vec![
                (220, false),
                (530, false),
                (215, false),
                (200, false),
                (502, false)
            ]
        );
    }

    #[test]
    fn commands_after_quit_are_dead() {
        assert_eq!(
            seq("QUIT\r\nSYST\r\n"),
            vec![(220, false), (221, false)],
            "the server closes on QUIT"
        );
    }

    #[test]
    fn replica_vfs_tracks_own_mutations() {
        let replies =
            seq("USER alice\r\nPASS secret\r\nMKD /inbox\r\nMKD /inbox\r\nCWD /inbox\r\nSTAT\r\n");
        assert_eq!(
            &replies[3..],
            &[(257, false), (550, false), (250, false), (211, true)]
        );
    }

    #[test]
    fn transfers_contribute_success_pairs_to_the_expected_sequence() {
        assert_eq!(
            seq("USER alice\r\nPASS secret\r\nLIST\r\nRETR /pub/hello.txt\r\n"),
            vec![
                (220, false),
                (331, false),
                (230, false),
                (503, false),
                (503, false)
            ],
            "transfers without PASV are 503"
        );
        assert_eq!(
            seq("USER alice\r\nPASS secret\r\nPASV\r\nRETR /pub/hello.txt\r\n"),
            vec![
                (220, false),
                (331, false),
                (230, false),
                (227, false),
                (150, false),
                (226, false)
            ]
        );
        // A STOR makes the path visible to a later RETR (write-back).
        assert_eq!(
            &seq("USER alice\r\nPASS secret\r\nPASV\r\nSTOR /up.bin\r\nPASV\r\nRETR /up.bin\r\n")
                [3..],
            &[
                (227, false),
                (150, false),
                (226, false),
                (227, false),
                (150, false),
                (226, false)
            ]
        );
        // A STOR into a missing directory drains and rejects.
        assert_eq!(
            seq("USER alice\r\nPASS secret\r\nPASV\r\nSTOR /no/dir.bin\r\n").last(),
            Some(&(550, false))
        );
    }

    fn login_retr_inbound() -> &'static [u8] {
        b"USER alice\r\nPASS secret\r\nPASV\r\nRETR /pub/hello.txt\r\n"
    }

    fn control_outbound() -> Vec<u8> {
        b"220 ready\r\n331 pw\r\n230 in\r\n227 Entering Passive Mode (127,0,0,1,4,1)\r\n\
          150 Opening\r\n226 Done\r\n"
            .to_vec()
    }

    /// A control trace plus one data child carrying `payload`, with
    /// sequence stamps placing the data close before (`ok`) or after the
    /// completion write.
    fn transfer_traces(payload: &[u8], data_before_completion: bool) -> (ConnTrace, ConnTrace) {
        let out = control_outbound();
        let prefix_len = out.len() - b"150 Opening\r\n226 Done\r\n".len();
        let mut control = ConnTrace::synthetic(
            1,
            "peer",
            "Clean",
            vec![
                TapEvent::Read(login_retr_inbound().to_vec()),
                TapEvent::Wrote(out[..prefix_len].to_vec()),
                TapEvent::Wrote(out[prefix_len..].to_vec()),
            ],
        );
        let mut child = ConnTrace::synthetic(
            1,
            "data-peer",
            "Clean",
            vec![TapEvent::Wrote(payload.to_vec()), TapEvent::Shutdown],
        );
        child.parent = Some(DataParent {
            control_accept_index: 1,
            transfer_ordinal: 1,
        });
        if data_before_completion {
            control.seqs = vec![0, 1, 4];
            child.seqs = vec![2, 3];
        } else {
            control.seqs = vec![0, 1, 2];
            child.seqs = vec![3, 4];
        }
        (control, child)
    }

    fn check_with_child(control: &ConnTrace, child: ConnTrace, strict: bool) -> Vec<Violation> {
        let children = vec![child];
        let data = FtpDataCtx {
            children: &children,
            recorded: true,
            tolerant: false,
        };
        check_ftp_session(control, strict, &data)
    }

    #[test]
    fn exact_download_payload_passes_strict() {
        let (control, child) = transfer_traces(b"hello ftp", true);
        assert_eq!(check_with_child(&control, child, true), vec![]);
    }

    #[test]
    fn truncated_download_payload_is_a_violation() {
        let (control, child) = transfer_traces(b"hello", true);
        let v = check_with_child(&control, child, false);
        assert_eq!(v[0].kind, "data-payload-mismatch", "{v:?}");
    }

    #[test]
    fn completion_before_data_close_is_premature() {
        let (control, child) = transfer_traces(b"hello ftp", false);
        let v = check_with_child(&control, child, false);
        assert_eq!(v[0].kind, "premature-completion", "{v:?}");
    }

    #[test]
    fn success_without_a_data_trace_is_missing() {
        let (control, _) = transfer_traces(b"hello ftp", true);
        let data = FtpDataCtx {
            children: &[],
            recorded: true,
            tolerant: false,
        };
        let v = check_ftp_session(&control, false, &data);
        assert_eq!(v[0].kind, "missing-data-trace", "{v:?}");
    }

    #[test]
    fn data_failure_is_tolerated_only_on_tolerant_connections() {
        let mut out =
            b"220 r\r\n331 p\r\n230 i\r\n227 Entering Passive Mode (127,0,0,1,4,1)\r\n".to_vec();
        out.extend_from_slice(b"425 Can't open data connection.\r\n");
        let control = ConnTrace::synthetic(
            1,
            "peer",
            "Clean",
            vec![
                TapEvent::Read(login_retr_inbound().to_vec()),
                TapEvent::Wrote(out),
            ],
        );
        let tolerant = FtpDataCtx {
            children: &[],
            recorded: true,
            tolerant: true,
        };
        assert_eq!(check_ftp_session(&control, false, &tolerant), vec![]);
        let strict_data = FtpDataCtx {
            children: &[],
            recorded: true,
            tolerant: false,
        };
        let v = check_ftp_session(&control, false, &strict_data);
        assert_eq!(v[0].kind, "unexpected-data-failure", "{v:?}");
    }

    #[test]
    fn check_accepts_prefix_and_catches_wrong_code() {
        let inbound = b"USER alice\r\nPASS secret\r\n";
        let good = ConnTrace::synthetic(
            1,
            "peer-1",
            "Clean",
            vec![
                TapEvent::Read(inbound.to_vec()),
                TapEvent::Wrote(b"220 ready\r\n331 need password\r\n".to_vec()),
            ],
        );
        assert!(check_ftp(&good, false).is_empty());
        assert_eq!(
            check_ftp(&good, true)[0].kind,
            "incomplete-delivery",
            "strict wants the 230 too"
        );
        let bad = ConnTrace {
            events: vec![
                TapEvent::Read(inbound.to_vec()),
                TapEvent::Wrote(b"220 ready\r\n230 logged in\r\n".to_vec()),
            ],
            ..good
        };
        assert_eq!(check_ftp(&bad, false)[0].kind, "reply-mismatch");
    }
}

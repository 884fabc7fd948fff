//! Per-connection FTP session state: the authentication FSM, current
//! directory, transfer type and passive-mode data listener.

use nserver_core::transport::TcpListenerNb;

/// Authentication progress.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionState {
    /// No USER yet.
    Greeted,
    /// USER received; waiting for PASS.
    NeedPassword {
        /// The claimed user name.
        user: String,
    },
    /// Logged in.
    LoggedIn {
        /// The authenticated user name.
        user: String,
    },
}

/// One control connection's state; `L` is its data listeners' transport.
pub struct Session<L = TcpListenerNb> {
    /// Authentication FSM state.
    pub state: SessionState,
    /// Current working directory.
    pub cwd: String,
    /// Transfer type (`A` or `I`).
    pub transfer_type: char,
    /// Passive-mode listener awaiting a data connection, with its ordinal.
    pub pasv: Option<(L, u32)>,
    /// Data listeners opened so far (one per successful PASV). The next
    /// one's ordinal is one more: it tags the data connection's trace so
    /// conformance checking can join it to the transfer that consumed
    /// the listener.
    pub data_listeners: u32,
}

impl<L> Default for Session<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L> Session<L> {
    /// Fresh session at the root directory.
    pub fn new() -> Self {
        Self {
            state: SessionState::Greeted,
            cwd: "/".to_string(),
            transfer_type: 'A',
            pasv: None,
            data_listeners: 0,
        }
    }

    /// Whether the session is authenticated.
    pub fn logged_in(&self) -> bool {
        matches!(self.state, SessionState::LoggedIn { .. })
    }

    /// Take the passive listener and its ordinal for a data transfer
    /// (single use).
    pub fn take_pasv(&mut self) -> Option<(L, u32)> {
        self.pasv.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nserver_core::transport::mem::{self, MemListener};
    use nserver_core::transport::Listener;

    #[test]
    fn new_session_defaults() {
        let s = Session::<MemListener>::new();
        assert_eq!(s.state, SessionState::Greeted);
        assert_eq!(s.cwd, "/");
        assert_eq!(s.transfer_type, 'A');
        assert!(!s.logged_in());
    }

    #[test]
    fn login_fsm_transitions() {
        let mut s = Session::<MemListener>::new();
        s.state = SessionState::NeedPassword { user: "u".into() };
        assert!(!s.logged_in());
        s.state = SessionState::LoggedIn { user: "u".into() };
        assert!(s.logged_in());
    }

    #[test]
    fn pasv_listener_is_single_use() {
        let (control, connector) = mem::listener("control");
        connector.on_data(|_, _, data| drop(data.connect()));
        let mut s = Session::new();
        s.pasv = Some((control.data_listener(1, 1).unwrap(), 1));
        let (mut listener, ordinal) = s.take_pasv().expect("the listener");
        assert_eq!(ordinal, 1);
        assert!(s.take_pasv().is_none());
        assert!(
            listener.try_accept().unwrap().is_some(),
            "its client connected as it opened"
        );
    }
}

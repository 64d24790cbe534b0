//! The SEV firmware command interface and its state machines.

use crate::error::SevError;
use fidelius_crypto::aes::Aes128;
use fidelius_crypto::hmac::{derive_key128, hmac_sha256, verify_hmac_sha256};
use fidelius_crypto::keywrap;
use fidelius_crypto::modes::{Ctr128, PaTweakCipher, SECTOR_SIZE};
use fidelius_crypto::rng::Xoshiro256;
use fidelius_crypto::sha256::Sha256;
use fidelius_crypto::x25519::KeyPair;
use fidelius_crypto::Key128;
use fidelius_hw::cpu::{scope, Machine, Site};
use fidelius_hw::cycles::CycleCategory;
use fidelius_hw::fxhash::FxBuildHasher;
use fidelius_hw::{Asid, Hpa, PAGE_SIZE};
use fidelius_trace::{ArgValue, SpanKind};
use std::collections::{HashMap, HashSet};

/// CTR nonce of the `SEND`/`RECEIVE_UPDATE_DATA` page stream (and of the
/// owner-packaged images that `RECEIVE` boots); the page index selects the
/// counter block.
pub(crate) const PAGE_NONCE: u64 = 0x7EC0_0000_0000_0000;
/// CTR nonce base of the I/O helper streams, XORed with the stream
/// (sector) number.
const IO_NONCE: u64 = 0x10_0000_0000_0000;

/// Platform-wide firmware state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlatformState {
    /// Before `INIT`.
    Uninitialized,
    /// After `INIT`: guest commands are accepted.
    Initialized,
}

/// Per-guest context state (a subset of the SEV spec's states, sufficient
/// for the paper's flows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuestState {
    /// Between `LAUNCH_START` and `LAUNCH_FINISH`.
    Launching,
    /// Runnable.
    Running,
    /// Between `SEND_START` and `SEND_FINISH` (guest execution stopped —
    /// which is why the paper notes Fidelius cannot do *live* migration).
    Sending,
    /// Between `RECEIVE_START` and `RECEIVE_FINISH`.
    Receiving,
}

/// Which firmware build is running — the retrofitted one the paper
/// proposes, or the vanilla SEV firmware it improves on.
///
/// The attack matrix boots victims under both: the same command sequence
/// that the retrofit refuses with [`SevError::SessionNonceReplayed`]
/// (stale-measurement rollback) sails through vanilla firmware, which
/// keeps no anti-replay state at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FwMode {
    /// Paper firmware: session nonces are single-use. A nonce is
    /// *committed* only when its RECEIVE/LAUNCH completes successfully
    /// (`receive_finish`), so a transfer the hypervisor tampered with can
    /// be retried with the same session blob.
    #[default]
    Retrofit,
    /// Faithful vanilla SEV: no nonce bookkeeping, every well-formed
    /// session blob is accepted — including one captured from an earlier
    /// boot (the attestation-rollback attack).
    Vanilla,
}

/// Guest policy bits (simplified).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GuestPolicy {
    /// The guest's key may not be shared with another guest context.
    pub no_key_sharing: bool,
}

/// An opaque handle naming a guest context inside the firmware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(pub u32);

/// The session parameters that travel with wrapped transport keys — the
/// paper's `Kwrap` plus the public ECDH metadata (origin public key and
/// nonce `Nvm`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionBlob {
    /// `Kwrap`: TEK‖TIK wrapped under the ECDH-derived KEK.
    pub wrapped_keys: Vec<u8>,
    /// The origin's public ECDH key (public).
    pub origin_pdh: [u8; 32],
    /// The session nonce (public).
    pub nonce: [u8; 32],
}

/// Handles for the paper's SEV-based I/O helper contexts (§4.3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoHelpers {
    /// The sending helper (encrypt: `Kvek` → `Ktek`).
    pub sdom: Handle,
    /// The receiving helper (decrypt: `Ktek` → `Kvek`).
    pub rdom: Handle,
}

#[derive(Clone)]
struct GuestContext {
    state: GuestState,
    policy: GuestPolicy,
    kvek: Key128,
    asid: Option<Asid>,
    tek: Option<Key128>,
    tik: Option<Key128>,
    measurement: Sha256,
    /// The session nonce this context was started from (retrofit only) —
    /// committed to the platform's consumed set at `receive_finish`.
    session_nonce: Option<[u8; 32]>,
}

impl GuestContext {
    fn new(kvek: Key128, policy: GuestPolicy, state: GuestState) -> Self {
        GuestContext {
            state,
            policy,
            kvek,
            asid: None,
            tek: None,
            tik: None,
            measurement: Sha256::new(),
            session_nonce: None,
        }
    }

    fn require(&self, expected: GuestState) -> Result<(), SevError> {
        if self.state == expected {
            Ok(())
        } else {
            Err(SevError::InvalidGuestState { expected, actual: self.state })
        }
    }
}

/// Derives the key-encryption key both endpoints of a session agree on.
///
/// Exposed so the guest-owner tooling ([`crate::owner`]) can run the same
/// derivation; the hypervisor observing `origin_pdh` and `nonce` cannot,
/// lacking either private key.
pub fn derive_session_kek(shared_secret: &[u8; 32], nonce: &[u8; 32]) -> Key128 {
    let mut ikm = Vec::with_capacity(64);
    ikm.extend_from_slice(shared_secret);
    ikm.extend_from_slice(nonce);
    derive_key128(&ikm, "sev-session-kek")
}

/// Wraps TEK‖TIK under the session KEK.
pub fn wrap_transport_keys(kek: &Key128, tek: &Key128, tik: &Key128) -> Vec<u8> {
    let mut keys = Vec::with_capacity(32);
    keys.extend_from_slice(tek);
    keys.extend_from_slice(tik);
    keywrap::wrap(kek, &keys).expect("32-byte wrap input is always valid")
}

/// Charges the engine's two passes over `len` bytes (decrypt under one
/// key, encrypt under the other) to [`CycleCategory::CryptoEngine`].
fn charge_reencrypt(machine: &mut Machine, len: u64) {
    let lines = len.div_ceil(fidelius_hw::CACHE_LINE).max(1);
    machine.cycles.charge_as(
        CycleCategory::CryptoEngine,
        2.0 * lines as f64 * machine.cost.engine_line_extra,
    );
}

fn unwrap_transport_keys(kek: &Key128, wrapped: &[u8]) -> Result<(Key128, Key128), SevError> {
    let keys = keywrap::unwrap(kek, wrapped).map_err(|_| SevError::BadSessionKeys)?;
    if keys.len() != 32 {
        return Err(SevError::BadSessionKeys);
    }
    let tek: Key128 = keys[..16].try_into().expect("length checked");
    let tik: Key128 = keys[16..].try_into().expect("length checked");
    Ok((tek, tik))
}

/// Expanded key schedules for one guest or I/O helper context, built once
/// per handle instead of once per page/sector. A handle's `Kvek` is fixed
/// at creation and handles are never reused, so the engine schedule can
/// never go stale; the transport schedule is cached once the context holds
/// a `Ktek` and the whole entry is dropped by `SEND_START`, the only
/// command that rotates transport keys on a live handle. Page and sector
/// commands borrow the entry; nothing clones a schedule per call.
struct IoCiphers {
    /// The guest's memory-encryption engine cipher (`Kvek`).
    engine: PaTweakCipher,
    /// The expanded I/O transport cipher (`Ktek`) when the context holds
    /// one; CTR runs borrow this schedule via [`Ctr128::apply_with`].
    /// `None` for contexts without transport keys (e.g. `Launching`
    /// guests).
    tek: Option<Aes128>,
}

/// How many peers' PDH agreements [`Pdh`] keeps.
const PDH_MEMO: usize = 4;

/// The platform's Diffie-Hellman key with its most recent agreements. A
/// platform pair derives the same master secret at every `SEND_START` and
/// `RECEIVE_START` between them, so each peer's secret is computed once
/// while it stays among the [`PDH_MEMO`] most recently used peers.
struct Pdh {
    keys: KeyPair,
    /// `(peer public key, shared secret)`, least recently used first.
    memo: Vec<([u8; 32], [u8; 32])>,
}

impl Pdh {
    fn new(keys: KeyPair) -> Self {
        Pdh { keys, memo: Vec::with_capacity(PDH_MEMO) }
    }

    /// [`KeyPair::agree`] with `peer`, from the memo when it holds `peer`;
    /// otherwise computed, evicting the least recently used entry.
    fn agree(&mut self, peer: &[u8; 32]) -> [u8; 32] {
        let secret = match self.memo.iter().position(|(p, _)| p == peer) {
            Some(i) => self.memo.remove(i).1,
            None => {
                if self.memo.len() == PDH_MEMO {
                    self.memo.remove(0);
                }
                self.keys.agree(peer)
            }
        };
        self.memo.push((*peer, secret));
        secret
    }
}

/// The SEV firmware. See the crate docs for the trust model.
pub struct Firmware {
    state: PlatformState,
    mode: FwMode,
    pdh: Pdh,
    attest_key: Key128,
    guests: HashMap<Handle, GuestContext, FxBuildHasher>,
    /// Session nonces consumed by a *successful* receive (retrofit only).
    /// Keyed by bytes dom0 relays, so it keeps the standard hasher (see
    /// [`fidelius_hw::fxhash`]).
    seen_nonces: HashSet<[u8; 32]>,
    /// Per-helper expanded I/O key schedules (see [`IoCiphers`]).
    io_ciphers: HashMap<Handle, IoCiphers, FxBuildHasher>,
    /// The I/O commands' staging buffer, reused across calls. It holds a
    /// run's plaintext between the two passes and never leaves the
    /// firmware.
    io_scratch: Vec<u8>,
    next_handle: u32,
    rng: Xoshiro256,
}

impl std::fmt::Debug for Firmware {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Firmware")
            .field("state", &self.state)
            .field("guests", &self.guests.len())
            .finish()
    }
}

impl Firmware {
    /// Creates the retrofitted firmware with a fresh platform identity
    /// derived from `seed` (deterministic for reproducible simulations).
    pub fn new(seed: u64) -> Self {
        Self::with_mode(seed, FwMode::Retrofit)
    }

    /// Creates vanilla SEV firmware: same commands, none of the paper's
    /// retrofit checks (see [`FwMode::Vanilla`]). Used by the attack
    /// matrix's undefended configurations.
    pub fn new_vanilla(seed: u64) -> Self {
        Self::with_mode(seed, FwMode::Vanilla)
    }

    /// Creates the firmware in an explicit [`FwMode`]. The platform
    /// identity depends only on `seed`, so a retrofit and a vanilla
    /// instance with the same seed share a PDH — useful for replaying the
    /// exact same owner-packaged image against both builds.
    pub fn with_mode(seed: u64, mode: FwMode) -> Self {
        let mut rng = Xoshiro256::new(seed ^ 0x5EF1_F1DE_11D5_0001);
        let pdh = KeyPair::from_seed(rng.next_bytes32());
        let attest_key = rng.next_key128();
        Firmware {
            state: PlatformState::Uninitialized,
            mode,
            pdh: Pdh::new(pdh),
            attest_key,
            guests: HashMap::default(),
            seen_nonces: HashSet::new(),
            io_ciphers: HashMap::default(),
            io_scratch: Vec::new(),
            next_handle: 1,
            rng,
        }
    }

    /// Which firmware build this is.
    pub fn mode(&self) -> FwMode {
        self.mode
    }

    /// `INIT`: brings the platform to the working state.
    ///
    /// # Errors
    ///
    /// Fails if already initialized.
    pub fn init(&mut self) -> Result<(), SevError> {
        if self.state != PlatformState::Uninitialized {
            return Err(SevError::InvalidPlatformState { actual: self.state });
        }
        self.state = PlatformState::Initialized;
        Ok(())
    }

    /// Current platform state.
    pub fn platform_state(&self) -> PlatformState {
        self.state
    }

    /// The platform Diffie-Hellman public key (PDH), used by guest owners
    /// to target this machine.
    pub fn pdh_public(&self) -> [u8; 32] {
        *self.pdh.keys.public()
    }

    /// Attestation: tags `evidence` with the platform's attestation key.
    /// Stands in for the PSP's signed attestation reports — a verifier
    /// that trusts this platform (e.g. the guest owner, after key
    /// agreement) can check the tag with [`Firmware::verify_attestation`].
    pub fn attest(&self, evidence: &[u8]) -> [u8; 32] {
        hmac_sha256(&self.attest_key, evidence)
    }

    /// Verifies an attestation tag produced by this platform.
    pub fn verify_attestation(&self, evidence: &[u8], tag: &[u8; 32]) -> bool {
        verify_hmac_sha256(&self.attest_key, evidence, tag)
    }

    fn require_init(&self) -> Result<(), SevError> {
        if self.state != PlatformState::Initialized {
            return Err(SevError::InvalidPlatformState { actual: self.state });
        }
        Ok(())
    }

    fn guest(&self, h: Handle) -> Result<&GuestContext, SevError> {
        self.guests.get(&h).ok_or(SevError::UnknownHandle(h.0))
    }

    fn guest_mut(&mut self, h: Handle) -> Result<&mut GuestContext, SevError> {
        self.guests.get_mut(&h).ok_or(SevError::UnknownHandle(h.0))
    }

    fn fresh_handle(&mut self) -> Handle {
        let h = Handle(self.next_handle);
        self.next_handle += 1;
        h
    }

    // ----- launch ---------------------------------------------------------

    /// `LAUNCH_START`: creates a guest context with a fresh `Kvek`.
    ///
    /// # Errors
    ///
    /// Requires an initialized platform.
    pub fn launch_start(&mut self, policy: GuestPolicy) -> Result<Handle, SevError> {
        self.require_init()?;
        let kvek = self.rng.next_key128();
        let h = self.fresh_handle();
        self.guests.insert(h, GuestContext::new(kvek, policy, GuestState::Launching));
        Ok(h)
    }

    /// `LAUNCH_UPDATE_DATA`: encrypts `len` bytes of plaintext already
    /// loaded at physical `pa` in place with the guest's `Kvek`, extending
    /// the launch measurement.
    ///
    /// # Errors
    ///
    /// Requires the `Launching` state; `pa`/`len` must be 16-byte aligned.
    pub fn launch_update_data(
        &mut self,
        machine: &mut Machine,
        h: Handle,
        pa: Hpa,
        len: u64,
    ) -> Result<(), SevError> {
        self.require_init()?;
        let (ciphers, ctx, _) = self.cached_ciphers(h, GuestState::Launching)?;
        assert_eq!(pa.0 % 16, 0, "launch data must be block aligned");
        assert_eq!(len % 16, 0, "launch data length must be block aligned");
        let cells = machine.mc.dram_mut().raw_span_mut(pa, len as usize).map_err(SevError::Hw)?;
        ctx.measurement.update(cells);
        ciphers.engine.encrypt_blocks(pa.0, cells);
        let lines = len.div_ceil(fidelius_hw::CACHE_LINE);
        machine
            .cycles
            .charge_as(CycleCategory::CryptoEngine, lines as f64 * machine.cost.engine_line_extra);
        Ok(())
    }

    /// `LAUNCH_MEASURE`: the measurement of everything launch-updated so
    /// far, keyed so the owner can verify it.
    ///
    /// # Errors
    ///
    /// Requires the `Launching` state.
    pub fn launch_measure(&self, h: Handle) -> Result<[u8; 32], SevError> {
        let ctx = self.guest(h)?;
        ctx.require(GuestState::Launching)?;
        let digest = ctx.measurement.clone().finalize();
        Ok(hmac_sha256(&ctx.kvek, &digest))
    }

    /// `LAUNCH_FINISH`: the guest becomes runnable.
    ///
    /// # Errors
    ///
    /// Requires the `Launching` state.
    pub fn launch_finish(&mut self, h: Handle) -> Result<(), SevError> {
        let ctx = self.guest_mut(h)?;
        ctx.require(GuestState::Launching)?;
        ctx.state = GuestState::Running;
        Ok(())
    }

    // ----- activation -----------------------------------------------------

    /// `ACTIVATE`: binds the guest to an ASID and installs its `Kvek` into
    /// the memory controller.
    ///
    /// # Errors
    ///
    /// Fails with [`SevError::AsidInUse`] if another context holds the
    /// ASID. Note what it does *not* check: nothing stops the hypervisor
    /// from later running a *different* VMCB with this ASID — the
    /// key-sharing abuse of paper §2.2 that Fidelius closes by taking over
    /// SEV metadata and VMCB integrity.
    pub fn activate(
        &mut self,
        machine: &mut Machine,
        h: Handle,
        asid: Asid,
    ) -> Result<(), SevError> {
        self.require_init()?;
        self.guest(h)?;
        if self.guests.iter().any(|(other, ctx)| *other != h && ctx.asid == Some(asid)) {
            return Err(SevError::AsidInUse(asid));
        }
        let ctx = self.guest_mut(h)?;
        ctx.asid = Some(asid);
        machine.mc.install_guest_key(asid, &ctx.kvek);
        Ok(())
    }

    /// `DEACTIVATE`: unbinds the ASID and removes the key from the memory
    /// controller.
    ///
    /// # Errors
    ///
    /// Fails if the guest was never activated.
    pub fn deactivate(&mut self, machine: &mut Machine, h: Handle) -> Result<(), SevError> {
        let ctx = self.guest_mut(h)?;
        let asid = ctx.asid.take().ok_or(SevError::NotActivated)?;
        machine.mc.uninstall_guest_key(asid);
        Ok(())
    }

    /// `DECOMMISSION`: erases the guest context. The guest must be
    /// deactivated first.
    ///
    /// # Errors
    ///
    /// Fails if an ASID is still bound.
    pub fn decommission(&mut self, h: Handle) -> Result<(), SevError> {
        let ctx = self.guest(h)?;
        if ctx.asid.is_some() {
            return Err(SevError::NotActivated); // must DEACTIVATE first
        }
        self.guests.remove(&h);
        self.io_ciphers.remove(&h);
        Ok(())
    }

    /// The ASID currently bound to a handle, if any.
    ///
    /// # Errors
    ///
    /// Unknown handle.
    pub fn asid_of(&self, h: Handle) -> Result<Option<Asid>, SevError> {
        Ok(self.guest(h)?.asid)
    }

    /// Guest status (state + policy), the `GUEST_STATUS` command.
    ///
    /// # Errors
    ///
    /// Unknown handle.
    pub fn guest_status(&self, h: Handle) -> Result<(GuestState, GuestPolicy), SevError> {
        let ctx = self.guest(h)?;
        Ok((ctx.state, ctx.policy))
    }

    // ----- send (source side) ----------------------------------------------

    /// `SEND_START`: stops the guest and prepares transport keys wrapped
    /// for `target_pdh`. Returns the session blob to ship to the target.
    ///
    /// # Errors
    ///
    /// Requires the `Running` state.
    pub fn send_start(
        &mut self,
        h: Handle,
        target_pdh: &[u8; 32],
    ) -> Result<SessionBlob, SevError> {
        self.require_init()?;
        let origin_pdh = *self.pdh.keys.public();
        let shared = self.pdh.agree(target_pdh);
        let nonce = self.rng.next_bytes32();
        let tek = self.rng.next_key128();
        let tik = self.rng.next_key128();
        let ctx = self.guest_mut(h)?;
        ctx.require(GuestState::Running)?;
        let kek = derive_session_kek(&shared, &nonce);
        let wrapped_keys = wrap_transport_keys(&kek, &tek, &tik);
        ctx.tek = Some(tek);
        ctx.tik = Some(tik);
        ctx.measurement = Sha256::new();
        ctx.state = GuestState::Sending;
        // The transport key just rotated: drop any cached `Ktek` schedule
        // so the next page command re-expands the fresh key.
        if let Some(cached) = self.io_ciphers.get_mut(&h) {
            cached.tek = None;
        }
        Ok(SessionBlob { wrapped_keys, origin_pdh, nonce })
    }

    /// `SEND_UPDATE_DATA` for one page: re-encrypts the guest page at
    /// `src_pa` from `Kvek` to `Ktek`, writing the transport ciphertext
    /// into `out`, the caller's slot in its transport stream.
    /// `page_index` keys the CTR stream and must be unique per page.
    ///
    /// # Errors
    ///
    /// Requires the `Sending` state.
    ///
    /// # Panics
    ///
    /// When `out` is not one page long.
    pub fn send_update_page(
        &mut self,
        machine: &mut Machine,
        h: Handle,
        src_pa: Hpa,
        page_index: u64,
        out: &mut [u8],
    ) -> Result<(), SevError> {
        assert_eq!(out.len() as u64, PAGE_SIZE, "send slots are pages");
        let (ciphers, ctx, _) = self.cached_ciphers(h, GuestState::Sending)?;
        let args = [("page", ArgValue::U64(page_index))];
        scope(machine, Site::new(SpanKind::CryptoRun, "crypto:send_update").args(&args), |m| {
            let ciphertext = m.mc.dram().raw_span(src_pa, out.len()).map_err(SevError::Hw)?;
            ciphers.engine.decrypt_blocks_to(src_pa.0, ciphertext, out);
            ctx.measurement.update(out);
            let tek = ciphers.tek.as_ref().expect("sending state implies transport keys");
            Ctr128::apply_with(tek, PAGE_NONCE, page_index * (PAGE_SIZE / 16), out);
            charge_reencrypt(m, PAGE_SIZE);
            Ok(())
        })
    }

    /// `SEND_FINISH`: returns the transport integrity tag and puts the
    /// guest back to `Running` (the source usually decommissions it next).
    ///
    /// # Errors
    ///
    /// Requires the `Sending` state.
    pub fn send_finish(&mut self, h: Handle) -> Result<[u8; 32], SevError> {
        let ctx = self.guest_mut(h)?;
        ctx.require(GuestState::Sending)?;
        let tik = ctx.tik.expect("sending state implies transport keys");
        let digest = ctx.measurement.clone().finalize();
        ctx.state = GuestState::Running;
        Ok(hmac_sha256(&tik, &digest))
    }

    // ----- receive (target side) --------------------------------------------

    /// `RECEIVE_START`: unwraps the transport keys from the session blob
    /// and creates a context with a fresh `Kvek`.
    ///
    /// # Errors
    ///
    /// [`SevError::BadSessionKeys`] when the blob was not wrapped for this
    /// platform (or was tampered with). On retrofitted firmware,
    /// [`SevError::SessionNonceReplayed`] when the session nonce was
    /// already consumed by an earlier *successful* receive — the
    /// anti-rollback check vanilla SEV lacks. A nonce is only committed at
    /// [`Firmware::receive_finish`], so a transfer that failed integrity
    /// verification can be retried with the same session blob.
    pub fn receive_start(
        &mut self,
        session: &SessionBlob,
        policy: GuestPolicy,
    ) -> Result<Handle, SevError> {
        self.require_init()?;
        if self.mode == FwMode::Retrofit && self.seen_nonces.contains(&session.nonce) {
            return Err(SevError::SessionNonceReplayed);
        }
        let shared = self.pdh.agree(&session.origin_pdh);
        let kek = derive_session_kek(&shared, &session.nonce);
        let (tek, tik) = unwrap_transport_keys(&kek, &session.wrapped_keys)?;
        let kvek = self.rng.next_key128();
        let h = self.fresh_handle();
        let mut ctx = GuestContext::new(kvek, policy, GuestState::Receiving);
        ctx.tek = Some(tek);
        ctx.tik = Some(tik);
        if self.mode == FwMode::Retrofit {
            ctx.session_nonce = Some(session.nonce);
        }
        self.guests.insert(h, ctx);
        Ok(h)
    }

    /// `RECEIVE_UPDATE_DATA` for one page: decrypts transport ciphertext
    /// and re-encrypts it under the guest's `Kvek` at `dst_pa`.
    ///
    /// # Errors
    ///
    /// Requires the `Receiving` state; `chunk` must be one page.
    pub fn receive_update_page(
        &mut self,
        machine: &mut Machine,
        h: Handle,
        chunk: &[u8],
        page_index: u64,
        dst_pa: Hpa,
    ) -> Result<(), SevError> {
        assert_eq!(chunk.len() as u64, PAGE_SIZE, "receive chunks are pages");
        let mut page = [0u8; PAGE_SIZE as usize];
        page.copy_from_slice(chunk);
        self.receive_update(machine, h, &mut page, page_index, dst_pa)
    }

    /// `RECEIVE_UPDATE_DATA` in place: the transport ciphertext of one page
    /// already sits at `pa` (the encrypted-boot image load) and is
    /// re-encrypted there under the guest's `Kvek`.
    ///
    /// # Errors
    ///
    /// Requires the `Receiving` state.
    pub fn receive_update_page_in_place(
        &mut self,
        machine: &mut Machine,
        h: Handle,
        page_index: u64,
        pa: Hpa,
    ) -> Result<(), SevError> {
        let mut page = [0u8; PAGE_SIZE as usize];
        machine.mc.dram().read_raw(pa, &mut page).map_err(SevError::Hw)?;
        self.receive_update(machine, h, &mut page, page_index, pa)
    }

    /// The body of both `RECEIVE_UPDATE_DATA` forms: `page` holds the
    /// transport ciphertext and is consumed as scratch.
    fn receive_update(
        &mut self,
        machine: &mut Machine,
        h: Handle,
        page: &mut [u8; PAGE_SIZE as usize],
        page_index: u64,
        dst_pa: Hpa,
    ) -> Result<(), SevError> {
        let (ciphers, ctx, _) = self.cached_ciphers(h, GuestState::Receiving)?;
        let args = [("page", ArgValue::U64(page_index))];
        scope(machine, Site::new(SpanKind::CryptoRun, "crypto:receive_update").args(&args), |m| {
            let tek = ciphers.tek.as_ref().expect("receiving state implies transport keys");
            Ctr128::apply_with(tek, PAGE_NONCE, page_index * (PAGE_SIZE / 16), page);
            ctx.measurement.update(page);
            let cells = m.mc.dram_mut().raw_span_mut(dst_pa, page.len()).map_err(SevError::Hw)?;
            ciphers.engine.encrypt_blocks_to(dst_pa.0, page, cells);
            charge_reencrypt(m, PAGE_SIZE);
            Ok(())
        })
    }

    /// `RECEIVE_FINISH`: verifies the transport integrity tag; on success
    /// the guest becomes runnable.
    ///
    /// # Errors
    ///
    /// [`SevError::BadMeasurement`] if any received page was tampered
    /// with, reordered or replayed.
    pub fn receive_finish(&mut self, h: Handle, expected_tag: &[u8; 32]) -> Result<(), SevError> {
        let ctx = self.guest_mut(h)?;
        ctx.require(GuestState::Receiving)?;
        let tik = ctx.tik.expect("receiving state implies transport keys");
        let digest = ctx.measurement.clone().finalize();
        if !verify_hmac_sha256(&tik, &digest, expected_tag) {
            return Err(SevError::BadMeasurement);
        }
        ctx.state = GuestState::Running;
        // Retrofit anti-rollback: the nonce is burned only now that the
        // transfer verified end-to-end.
        let nonce = ctx.session_nonce.take();
        if let Some(n) = nonce {
            self.seen_nonces.insert(n);
        }
        Ok(())
    }

    // ----- the paper's SEV-based I/O helpers (§4.3.5) ------------------------

    /// Creates the s-dom and r-dom helper contexts for a guest: both share
    /// the guest's `Kvek` and a fresh I/O transport key, with s-dom pinned
    /// in the sending state and r-dom in the receiving state — the trick
    /// that makes `SEND_UPDATE`/`RECEIVE_UPDATE` usable for I/O encryption
    /// while the guest itself stays in `Running`.
    ///
    /// # Errors
    ///
    /// The guest must exist; key-sharing policy forbids helpers when
    /// `no_key_sharing` is set.
    pub fn create_io_helpers(&mut self, h: Handle) -> Result<IoHelpers, SevError> {
        self.require_init()?;
        let parent = self.guest(h)?.clone();
        if parent.policy.no_key_sharing {
            return Err(SevError::InvalidGuestState {
                expected: GuestState::Running,
                actual: parent.state,
            });
        }
        let tek = self.rng.next_key128();
        let tik = self.rng.next_key128();
        let mut sdom_ctx = GuestContext::new(parent.kvek, parent.policy, GuestState::Sending);
        sdom_ctx.tek = Some(tek);
        sdom_ctx.tik = Some(tik);
        let mut rdom_ctx = GuestContext::new(parent.kvek, parent.policy, GuestState::Receiving);
        rdom_ctx.tek = Some(tek);
        rdom_ctx.tik = Some(tik);
        let sdom = self.fresh_handle();
        self.guests.insert(sdom, sdom_ctx);
        let rdom = self.fresh_handle();
        self.guests.insert(rdom, rdom_ctx);
        Ok(IoHelpers { sdom, rdom })
    }

    /// The cached expanded key schedules for context `h`, validating its
    /// state. Built on first use; the `Kvek` is immutable and handle
    /// numbers are never reused, so the engine schedule cannot go stale.
    /// The `Ktek` schedule is expanded the first time the context is seen
    /// holding transport keys; `SEND_START` — the only command that
    /// rotates a live handle's `Ktek` — evicts the entry first.
    ///
    /// Returns the entry borrowed next to the context itself, so a page
    /// command can extend the measurement while it transforms the page
    /// under the cached schedules, and next to the I/O scratch buffer.
    fn cached_ciphers(
        &mut self,
        h: Handle,
        expected: GuestState,
    ) -> Result<(&IoCiphers, &mut GuestContext, &mut Vec<u8>), SevError> {
        let ctx = self.guests.get_mut(&h).ok_or(SevError::UnknownHandle(h.0))?;
        ctx.require(expected)?;
        let entry = self
            .io_ciphers
            .entry(h)
            .or_insert_with(|| IoCiphers { engine: PaTweakCipher::new(&ctx.kvek), tek: None });
        if entry.tek.is_none() {
            entry.tek = ctx.tek.as_ref().map(Aes128::new);
        }
        Ok((entry, ctx, &mut self.io_scratch))
    }

    /// I/O write path (`SEND_UPDATE` on s-dom): re-encrypts `sectors`
    /// whole sectors of `Kvek` ciphertext at `src_pa` (the guest's
    /// dedicated buffer `Md`) into `Ktek` ciphertext at `dst_pa` (the
    /// shared I/O buffer). Sector `s` moves from `src_pa + 512·s` to
    /// `dst_pa + 512·s` under CTR stream `first_stream + s` (the sector
    /// number); a single sector is a run of one. The whole run moves
    /// through one DRAM read, one streaming XEX pass over the cached
    /// `Kvek` schedule, per-sector CTR runs over the cached `Ktek`
    /// schedule, and one DRAM write. The source and destination runs must
    /// not overlap (they are the disjoint `Md` and shared-buffer windows).
    ///
    /// # Errors
    ///
    /// Requires a `Sending`-state helper context.
    pub fn io_encrypt(
        &mut self,
        machine: &mut Machine,
        sdom: Handle,
        src_pa: Hpa,
        dst_pa: Hpa,
        sectors: u64,
        first_stream: u64,
    ) -> Result<(), SevError> {
        let (ciphers, _, buf) = self.cached_ciphers(sdom, GuestState::Sending)?;
        let tek = ciphers.tek.as_ref().expect("sending state implies transport keys");
        assert_eq!(src_pa.0 % 16, 0, "io buffers must be block aligned");
        if sectors == 0 {
            return Ok(());
        }
        let len = sectors * SECTOR_SIZE as u64;
        debug_assert!(
            src_pa.0 + len <= dst_pa.0 || dst_pa.0 + len <= src_pa.0,
            "batched io runs must not overlap"
        );
        buf.resize(len as usize, 0);
        let ciphertext = machine.mc.dram().raw_span(src_pa, buf.len()).map_err(SevError::Hw)?;
        ciphers.engine.decrypt_blocks_to(src_pa.0, ciphertext, buf);
        for (s, sector) in buf.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            let stream = first_stream.wrapping_add(s as u64);
            Ctr128::apply_with(tek, IO_NONCE ^ stream, 0, sector);
        }
        machine.mc.dram_mut().write_raw(dst_pa, buf).map_err(SevError::Hw)?;
        charge_reencrypt(machine, len);
        Ok(())
    }

    /// I/O read path (`RECEIVE_UPDATE` on r-dom): re-encrypts `sectors`
    /// whole sectors of `Ktek` ciphertext at `src_pa` (the shared buffer)
    /// into `Kvek` ciphertext at `dst_pa` (the guest's `Md`); the mirror
    /// of [`Firmware::io_encrypt`].
    ///
    /// # Errors
    ///
    /// Requires a `Receiving`-state helper context.
    pub fn io_decrypt(
        &mut self,
        machine: &mut Machine,
        rdom: Handle,
        src_pa: Hpa,
        dst_pa: Hpa,
        sectors: u64,
        first_stream: u64,
    ) -> Result<(), SevError> {
        let (ciphers, _, buf) = self.cached_ciphers(rdom, GuestState::Receiving)?;
        let tek = ciphers.tek.as_ref().expect("receiving state implies transport keys");
        assert_eq!(dst_pa.0 % 16, 0, "io buffers must be block aligned");
        if sectors == 0 {
            return Ok(());
        }
        let len = sectors * SECTOR_SIZE as u64;
        debug_assert!(
            src_pa.0 + len <= dst_pa.0 || dst_pa.0 + len <= src_pa.0,
            "batched io runs must not overlap"
        );
        buf.resize(len as usize, 0);
        machine.mc.dram().read_raw(src_pa, buf).map_err(SevError::Hw)?;
        for (s, sector) in buf.chunks_exact_mut(SECTOR_SIZE).enumerate() {
            let stream = first_stream.wrapping_add(s as u64);
            Ctr128::apply_with(tek, IO_NONCE ^ stream, 0, sector);
        }
        let cells = machine.mc.dram_mut().raw_span_mut(dst_pa, buf.len()).map_err(SevError::Hw)?;
        ciphers.engine.encrypt_blocks_to(dst_pa.0, buf, cells);
        charge_reencrypt(machine, len);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fidelius_hw::memctrl::EncSel;

    fn setup() -> (Machine, Firmware) {
        let machine = Machine::new(256 * PAGE_SIZE);
        let mut fw = Firmware::new(42);
        fw.init().unwrap();
        (machine, fw)
    }

    #[test]
    fn init_is_once() {
        let mut fw = Firmware::new(1);
        assert_eq!(fw.platform_state(), PlatformState::Uninitialized);
        fw.init().unwrap();
        assert!(matches!(fw.init(), Err(SevError::InvalidPlatformState { .. })));
    }

    #[test]
    fn pdh_memo_matches_fresh_agreement() {
        let mut fw = Firmware::new(3);
        let peers: Vec<[u8; 32]> =
            (1..=6u8).map(|i| *KeyPair::from_seed([i; 32]).public()).collect();
        // Six distinct peers with repeats: hits, evictions, and peers
        // asked for again after their eviction.
        for i in [0, 1, 0, 2, 3, 4, 1, 5, 0, 0, 2, 5, 4, 3, 1] {
            let want = fw.pdh.keys.agree(&peers[i]);
            assert_eq!(fw.pdh.agree(&peers[i]), want, "peer {i}");
            assert!(fw.pdh.memo.len() <= PDH_MEMO);
        }
        // The least recently used peer is the one evicted: after 0..=3
        // fill the memo and 0 is used again, 4 evicts 1, not 0.
        let mut fw = Firmware::new(3);
        for i in [0, 1, 2, 3, 0, 4] {
            fw.pdh.agree(&peers[i]);
        }
        let held: Vec<[u8; 32]> = fw.pdh.memo.iter().map(|(p, _)| *p).collect();
        assert_eq!(held, [2, 3, 0, 4].map(|i| peers[i]));
    }

    #[test]
    fn commands_require_init() {
        let mut fw = Firmware::new(1);
        assert!(matches!(
            fw.launch_start(GuestPolicy::default()),
            Err(SevError::InvalidPlatformState { .. })
        ));
    }

    #[test]
    fn launch_encrypts_in_place_and_measures() {
        let (mut m, mut fw) = setup();
        let h = fw.launch_start(GuestPolicy::default()).unwrap();
        let pa = Hpa(0x4000);
        m.mc.dram_mut().write_raw(pa, b"kernel code here").unwrap();
        fw.launch_update_data(&mut m, h, pa, 16).unwrap();
        // DRAM now holds ciphertext.
        let mut raw = [0u8; 16];
        m.mc.dram().read_raw(pa, &mut raw).unwrap();
        assert_ne!(&raw, b"kernel code here");
        let m1 = fw.launch_measure(h).unwrap();
        fw.launch_update_data(&mut m, h, Hpa(0x5000), 16).unwrap();
        let m2 = fw.launch_measure(h).unwrap();
        assert_ne!(m1, m2, "measurement must extend");
        fw.launch_finish(h).unwrap();
        assert!(matches!(
            fw.launch_update_data(&mut m, h, pa, 16),
            Err(SevError::InvalidGuestState { .. })
        ));
    }

    #[test]
    fn activate_installs_key_and_guards_asid() {
        let (mut m, mut fw) = setup();
        let h1 = fw.launch_start(GuestPolicy::default()).unwrap();
        let h2 = fw.launch_start(GuestPolicy::default()).unwrap();
        fw.activate(&mut m, h1, Asid(1)).unwrap();
        assert!(m.mc.has_guest_key(Asid(1)));
        assert!(matches!(fw.activate(&mut m, h2, Asid(1)), Err(SevError::AsidInUse(_))));
        fw.activate(&mut m, h2, Asid(2)).unwrap();
        fw.deactivate(&mut m, h1).unwrap();
        assert!(!m.mc.has_guest_key(Asid(1)));
        // Now ASID 1 is free again.
        fw.activate(&mut m, h2, Asid(1)).unwrap();
    }

    #[test]
    fn decommission_requires_deactivate() {
        let (mut m, mut fw) = setup();
        let h = fw.launch_start(GuestPolicy::default()).unwrap();
        fw.activate(&mut m, h, Asid(1)).unwrap();
        assert!(fw.decommission(h).is_err());
        fw.deactivate(&mut m, h).unwrap();
        fw.decommission(h).unwrap();
        assert!(matches!(fw.asid_of(h), Err(SevError::UnknownHandle(_))));
    }

    /// Full send → receive migration between two firmware instances, with
    /// integrity verification.
    #[test]
    fn migration_roundtrip() {
        let (mut m, mut src_fw) = setup();
        let mut dst_fw = Firmware::new(77);
        dst_fw.init().unwrap();

        // Launch a guest on the source and give it a page of secrets.
        let h = src_fw.launch_start(GuestPolicy::default()).unwrap();
        let src_pa = Hpa(0x8000);
        let mut page = vec![0u8; PAGE_SIZE as usize];
        page[..18].copy_from_slice(b"very secret state!");
        m.mc.dram_mut().write_raw(src_pa, &page).unwrap();
        src_fw.launch_update_data(&mut m, h, src_pa, PAGE_SIZE).unwrap();
        src_fw.launch_finish(h).unwrap();

        // Send.
        let session = src_fw.send_start(h, &dst_fw.pdh_public()).unwrap();
        let mut ct = [0u8; PAGE_SIZE as usize];
        src_fw.send_update_page(&mut m, h, src_pa, 0, &mut ct).unwrap();
        let tag = src_fw.send_finish(h).unwrap();
        assert_ne!(&ct[..18], b"very secret state!", "transport is encrypted");

        // Receive on the destination (same machine object for simplicity —
        // different physical placement).
        let rh = dst_fw.receive_start(&session, GuestPolicy::default()).unwrap();
        let dst_pa = Hpa(0xC000);
        dst_fw.receive_update_page(&mut m, rh, &ct, 0, dst_pa).unwrap();
        dst_fw.receive_finish(rh, &tag).unwrap();

        // Activate and read back through the engine: plaintext restored.
        dst_fw.activate(&mut m, rh, Asid(9)).unwrap();
        let mut back = [0u8; 18];
        m.mc.read(dst_pa, &mut back, EncSel::Guest(Asid(9))).unwrap();
        assert_eq!(&back, b"very secret state!");
    }

    #[test]
    fn tampered_transport_fails_receive_finish() {
        let (mut m, mut src_fw) = setup();
        let mut dst_fw = Firmware::new(78);
        dst_fw.init().unwrap();
        let h = src_fw.launch_start(GuestPolicy::default()).unwrap();
        let src_pa = Hpa(0x8000);
        src_fw.launch_update_data(&mut m, h, src_pa, PAGE_SIZE).unwrap();
        src_fw.launch_finish(h).unwrap();
        let session = src_fw.send_start(h, &dst_fw.pdh_public()).unwrap();
        let mut ct = [0u8; PAGE_SIZE as usize];
        src_fw.send_update_page(&mut m, h, src_pa, 0, &mut ct).unwrap();
        let tag = src_fw.send_finish(h).unwrap();
        ct[100] ^= 0xFF; // man-in-the-middle hypervisor flips a byte
        let rh = dst_fw.receive_start(&session, GuestPolicy::default()).unwrap();
        dst_fw.receive_update_page(&mut m, rh, &ct, 0, Hpa(0xC000)).unwrap();
        assert_eq!(dst_fw.receive_finish(rh, &tag), Err(SevError::BadMeasurement));
    }

    #[test]
    fn session_for_wrong_platform_fails_unwrap() {
        let (_m, mut src_fw) = setup();
        let mut other_fw = Firmware::new(79);
        other_fw.init().unwrap();
        let mut third_fw = Firmware::new(80);
        third_fw.init().unwrap();
        let h = src_fw.launch_start(GuestPolicy::default()).unwrap();
        src_fw.launch_finish(h).unwrap();
        let session = src_fw.send_start(h, &other_fw.pdh_public()).unwrap();
        // A different machine (the colluding target the hypervisor wants)
        // cannot unwrap the keys.
        assert_eq!(
            third_fw.receive_start(&session, GuestPolicy::default()).unwrap_err(),
            SevError::BadSessionKeys
        );
    }

    #[test]
    fn io_helpers_roundtrip() {
        let (mut m, mut fw) = setup();
        let h = fw.launch_start(GuestPolicy::default()).unwrap();
        fw.launch_finish(h).unwrap();
        fw.activate(&mut m, h, Asid(4)).unwrap();
        let helpers = fw.create_io_helpers(h).unwrap();

        // The guest writes one sector of plaintext through the engine at Md.
        let md = Hpa(0x6000);
        let shared = Hpa(0x7000);
        let md_back = Hpa(0x8000);
        let sector: Vec<u8> = b"disk sector data".iter().copied().cycle().take(512).collect();
        m.mc.write(md, &sector, EncSel::Guest(Asid(4))).unwrap();

        // Fidelius: SEND_UPDATE (Kvek → Ktek) into the shared buffer.
        fw.io_encrypt(&mut m, helpers.sdom, md, shared, 1, 5).unwrap();
        let mut shared_raw = vec![0u8; 512];
        m.mc.dram().read_raw(shared, &mut shared_raw).unwrap();
        assert_ne!(shared_raw, sector, "shared buffer holds Ktek ciphertext");

        // Fidelius: RECEIVE_UPDATE (Ktek → Kvek) back into guest memory.
        fw.io_decrypt(&mut m, helpers.rdom, shared, md_back, 1, 5).unwrap();
        let mut plain = vec![0u8; 512];
        m.mc.read(md_back, &mut plain, EncSel::Guest(Asid(4))).unwrap();
        assert_eq!(plain, sector);
    }

    /// A run of sectors must be byte- and cycle-identical to the same
    /// sectors as runs of one — the contract `Fidelity::Reference` checks
    /// the whole-stack SEV-API path against.
    #[test]
    fn io_sector_batch_matches_per_sector_oracle() {
        // Same seed + same command sequence → same helper keys on both
        // firmware instances, so the two machines see identical crypto.
        let build = || {
            let (mut m, mut fw) = setup();
            let h = fw.launch_start(GuestPolicy::default()).unwrap();
            fw.launch_finish(h).unwrap();
            fw.activate(&mut m, h, Asid(4)).unwrap();
            let helpers = fw.create_io_helpers(h).unwrap();
            (m, fw, helpers)
        };
        let (mut ma, mut fa, ha) = build();
        let (mut mb, mut fb, hb) = build();
        let sectors = 4u64;
        let data: Vec<u8> =
            (0..sectors as usize * 512).map(|i| (i as u8).wrapping_mul(31)).collect();
        let (src, dst, back) = (Hpa(0x6000), Hpa(0x10000), Hpa(0x20000));
        ma.mc.dram_mut().write_raw(src, &data).unwrap();
        mb.mc.dram_mut().write_raw(src, &data).unwrap();

        for s in 0..sectors {
            fa.io_encrypt(&mut ma, ha.sdom, Hpa(src.0 + 512 * s), Hpa(dst.0 + 512 * s), 1, 9 + s)
                .unwrap();
        }
        fb.io_encrypt(&mut mb, hb.sdom, src, dst, sectors, 9).unwrap();
        let mut ct_a = vec![0u8; data.len()];
        let mut ct_b = vec![0u8; data.len()];
        ma.mc.dram().read_raw(dst, &mut ct_a).unwrap();
        mb.mc.dram().read_raw(dst, &mut ct_b).unwrap();
        assert_eq!(ct_a, ct_b, "one run must encrypt as four runs of one");

        for s in 0..sectors {
            fa.io_decrypt(&mut ma, ha.rdom, Hpa(dst.0 + 512 * s), Hpa(back.0 + 512 * s), 1, 9 + s)
                .unwrap();
        }
        fb.io_decrypt(&mut mb, hb.rdom, dst, back, sectors, 9).unwrap();
        let mut pt_a = vec![0u8; data.len()];
        let mut pt_b = vec![0u8; data.len()];
        ma.mc.dram().read_raw(back, &mut pt_a).unwrap();
        mb.mc.dram().read_raw(back, &mut pt_b).unwrap();
        assert_eq!(pt_a, pt_b, "one run must re-encrypt as four runs of one");
        assert_eq!(
            ma.cycles.total_f64(),
            mb.cycles.total_f64(),
            "one run must charge what four runs of one charge"
        );
    }

    #[test]
    fn io_helpers_respect_no_key_sharing_policy() {
        let (_m, mut fw) = setup();
        let h = fw.launch_start(GuestPolicy { no_key_sharing: true }).unwrap();
        assert!(fw.create_io_helpers(h).is_err());
    }

    #[test]
    fn helper_states_reject_wrong_direction() {
        let (mut m, mut fw) = setup();
        let h = fw.launch_start(GuestPolicy::default()).unwrap();
        fw.launch_finish(h).unwrap();
        let helpers = fw.create_io_helpers(h).unwrap();
        // io_decrypt on the sending helper must fail, and vice versa.
        assert!(fw.io_decrypt(&mut m, helpers.sdom, Hpa(0), Hpa(0x1000), 1, 0).is_err());
        assert!(fw.io_encrypt(&mut m, helpers.rdom, Hpa(0), Hpa(0x1000), 1, 0).is_err());
    }

    /// Attestation rollback at the firmware layer: a session blob consumed
    /// by a successful receive cannot start a second receive on retrofit
    /// firmware, but vanilla firmware accepts the replay.
    #[test]
    fn retrofit_refuses_replayed_session_nonce_vanilla_accepts() {
        let (mut m, mut src_fw) = setup();
        let mut retro = Firmware::new(91);
        retro.init().unwrap();
        let mut vanilla = Firmware::new_vanilla(91); // same seed → same PDH
        vanilla.init().unwrap();
        assert_eq!(retro.mode(), FwMode::Retrofit);
        assert_eq!(vanilla.mode(), FwMode::Vanilla);
        assert_eq!(retro.pdh_public(), vanilla.pdh_public());

        let mut run_through = |dst: &mut Firmware, m: &mut Machine| {
            let h = src_fw.launch_start(GuestPolicy::default()).unwrap();
            let src_pa = Hpa(0x8000);
            src_fw.launch_update_data(m, h, src_pa, PAGE_SIZE).unwrap();
            src_fw.launch_finish(h).unwrap();
            let session = src_fw.send_start(h, &dst.pdh_public()).unwrap();
            let mut ct = [0u8; PAGE_SIZE as usize];
            src_fw.send_update_page(m, h, src_pa, 0, &mut ct).unwrap();
            let tag = src_fw.send_finish(h).unwrap();
            (session, ct, tag)
        };

        let (session, ct, tag) = run_through(&mut retro, &mut m);
        let rh = retro.receive_start(&session, GuestPolicy::default()).unwrap();
        retro.receive_update_page(&mut m, rh, &ct, 0, Hpa(0xC000)).unwrap();
        retro.receive_finish(rh, &tag).unwrap();
        // Replay against retrofit: refused at RECEIVE_START, typed.
        assert_eq!(
            retro.receive_start(&session, GuestPolicy::default()).unwrap_err(),
            SevError::SessionNonceReplayed
        );

        let (session, ct, tag) = run_through(&mut vanilla, &mut m);
        for _ in 0..2 {
            // Vanilla: the same stale session boots as often as the
            // hypervisor replays it.
            let rh = vanilla.receive_start(&session, GuestPolicy::default()).unwrap();
            vanilla.receive_update_page(&mut m, rh, &ct, 0, Hpa(0xD000)).unwrap();
            vanilla.receive_finish(rh, &tag).unwrap();
        }
    }

    /// A tampered transfer must not burn the nonce: the owner can resend
    /// the same session blob after the hypervisor corrupted the stream.
    #[test]
    fn failed_receive_does_not_consume_nonce() {
        let (mut m, mut src_fw) = setup();
        let mut dst = Firmware::new(92);
        dst.init().unwrap();
        let h = src_fw.launch_start(GuestPolicy::default()).unwrap();
        let src_pa = Hpa(0x8000);
        src_fw.launch_update_data(&mut m, h, src_pa, PAGE_SIZE).unwrap();
        src_fw.launch_finish(h).unwrap();
        let session = src_fw.send_start(h, &dst.pdh_public()).unwrap();
        let mut ct = [0u8; PAGE_SIZE as usize];
        src_fw.send_update_page(&mut m, h, src_pa, 0, &mut ct).unwrap();
        let tag = src_fw.send_finish(h).unwrap();

        let mut bad = ct;
        bad[0] ^= 0x01;
        let rh = dst.receive_start(&session, GuestPolicy::default()).unwrap();
        dst.receive_update_page(&mut m, rh, &bad, 0, Hpa(0xC000)).unwrap();
        assert_eq!(dst.receive_finish(rh, &tag), Err(SevError::BadMeasurement));

        // Retry with the pristine stream and the *same* session: accepted.
        let rh = dst.receive_start(&session, GuestPolicy::default()).unwrap();
        dst.receive_update_page(&mut m, rh, &ct, 0, Hpa(0xC000)).unwrap();
        dst.receive_finish(rh, &tag).unwrap();
        // And only now is the nonce burned.
        assert_eq!(
            dst.receive_start(&session, GuestPolicy::default()).unwrap_err(),
            SevError::SessionNonceReplayed
        );
    }

    #[test]
    fn send_requires_running() {
        let (_m, mut fw) = setup();
        let h = fw.launch_start(GuestPolicy::default()).unwrap();
        // Still Launching.
        let pdh = fw.pdh_public();
        assert!(matches!(fw.send_start(h, &pdh), Err(SevError::InvalidGuestState { .. })));
    }
}

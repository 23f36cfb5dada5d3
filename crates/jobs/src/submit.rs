//! `RunBuilder::submit_to` sugar: reuse the one-shot builder's fluent
//! surface to enqueue a job on a [`JobService`].

use crate::service::{JobService, JobSpec, SubmitError};
use panthera::{RunBuilder, RunSource};

/// Submit a configured run to a [`JobService`] instead of executing it
/// inline.
///
/// Implemented for [`RunBuilder`], so the two entry points read
/// side-by-side:
///
/// ```text
/// RunBuilder::new(&p, fns, data).config(cfg).run()?;            // one-shot
/// RunBuilder::new(&p, fns, data).config(cfg).submit_to(&mut s, tenant)?; // service
/// ```
pub trait SubmitTo<'a> {
    /// Enqueue this configured run as a job for `tenant`; returns the
    /// service-assigned job id.
    ///
    /// # Errors
    ///
    /// The same admission-time checks as [`JobService::submit`].
    fn submit_to(self, service: &mut JobService<'a>, tenant: u32) -> Result<u32, SubmitError>;
}

impl<'a> SubmitTo<'a> for RunBuilder<'a> {
    fn submit_to(self, service: &mut JobService<'a>, tenant: u32) -> Result<u32, SubmitError> {
        let parts = self.into_parts();
        let name = match &parts.source {
            RunSource::Once { program, .. } => program.name.clone(),
            RunSource::Rebuild(build) => build().0.name,
        };
        // The builder's host-thread bound is a wall-clock knob for its
        // own inline cluster runs; under the service the ServiceConfig's
        // bound governs instead, so it is deliberately dropped here.
        service.submit(JobSpec {
            source: parts.source,
            config: parts.config,
            tenant,
            priority: 0,
            faults: parts.faults,
            name,
        })
    }
}

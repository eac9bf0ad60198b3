//! The n-files-in-one-round replication campaign that `rm_scaling`
//! times and `rm_profile` instruments: one dataset of `n` single-step
//! files replicated at two OC-12 sites, pulled to the OC-3 portal through
//! `start_campaign` with a real checkpoint journal.
//!
//! Construction order is part of the pinned traces: testbed, dataset,
//! request-manager tuning, NWS warm-up to t=100 s, spec faults, campaign
//! start at t=105 s.

use super::TrialCtx;
use esg_core::scenario::EsgTestbed;
use esg_reqman::{start_campaign, CampaignOutcome, CampaignSpec};
use esg_simnet::prelude::inject_all;
use esg_simnet::{SimDuration, SimTime};

/// Campaign destination (OC-3 access link).
const TARGET_SITE: usize = 4;

pub struct CampaignRound {
    pub tb: EsgTestbed,
    /// The campaign about to start; executors may still adjust it (and
    /// `tb.sim.world.rm`) before [`CampaignRound::launch`].
    pub spec: CampaignSpec,
    pub n: usize,
    pub horizon: SimTime,
}

impl CampaignRound {
    /// Build the testbed and the campaign spec from the trial parameters
    /// (`n`, `bytes_per_file`, `max_active`, `batch_files`,
    /// `checkpoint_every_s`, `horizon_s`).
    pub fn prepare(
        ctx: &TrialCtx,
        dataset: &str,
        campaign: &str,
        tag: &str,
        default_n: usize,
    ) -> Result<CampaignRound, String> {
        let p = &ctx.params;
        let n = p.usize("n", default_n)?;
        // 0 = the whole collection in a single round — the "n files per
        // round" regime these scenarios exist to measure.
        let batch = match p.usize("batch_files", 0)? {
            0 => n,
            b => b,
        };

        let mut tb = esg_core::esg_testbed(ctx.seed);
        tb.publish_dataset(dataset, n, 1, p.u64("bytes_per_file", 1_000_000)?, &[1, 3]);
        tb.sim.world.rm.scheduler.max_active_per_request = p.usize("max_active", 24)?;

        let coll = tb
            .sim
            .world
            .metadata
            .collection_of(dataset)
            .map_err(|e| format!("collection_of: {e}"))?;
        let ckpt = ctx.tmp_path(tag, "ckpt");
        let _ = std::fs::remove_file(&ckpt);
        let mut spec = CampaignSpec::new(campaign, coll, tb.sites[TARGET_SITE].host.clone());
        spec.batch_files = batch;
        spec.checkpoint = Some(ckpt);
        spec.checkpoint_every = SimDuration::from_secs(p.u64("checkpoint_every_s", 1)?);
        Ok(CampaignRound {
            tb,
            spec,
            n,
            horizon: SimTime::from_secs(p.u64("horizon_s", 6000)?),
        })
    }

    /// Warm NWS up, inject the spec's fault schedule and schedule the
    /// campaign start. The caller then drives `tb.sim.run_until(horizon)`
    /// under whatever instrumentation it brings.
    pub fn launch(&mut self, ctx: &TrialCtx) -> Result<(), String> {
        self.tb.start_nws(SimDuration::from_secs(25));
        self.tb.sim.run_until(SimTime::from_secs(100));
        let faults = super::spec_faults(&ctx.spec.faults, &self.tb.sites)?;
        inject_all(&mut self.tb.sim, &faults);
        let spec = self.spec.clone();
        self.tb
            .sim
            .schedule_at(SimTime::from_secs(105), move |sim| {
                start_campaign(sim, spec, |s, o| s.world.campaigns.push(o));
            });
        Ok(())
    }

    /// The finished campaign's outcome; removes the checkpoint journal.
    pub fn finish(&mut self) -> Result<CampaignOutcome, String> {
        if let Some(ckpt) = &self.spec.checkpoint {
            let _ = std::fs::remove_file(ckpt);
        }
        self.tb
            .sim
            .world
            .campaigns
            .pop()
            .ok_or_else(|| format!("campaign did not finish by horizon (n={})", self.n))
    }
}

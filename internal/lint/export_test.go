package lint

// CommitOnly exposes phasepurity's denylist to TestCommitOnlyKeysResolve.
var CommitOnly = commitOnly

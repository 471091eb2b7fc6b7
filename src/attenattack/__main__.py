import gc
gc.disable()  # during cli's imports too; run() disables it again for the console script
from .cli import run  # noqa: E402

run()
